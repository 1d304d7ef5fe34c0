package analysis

import (
	"fmt"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// InitFacts bundles the two initialization analyses: May holds slots
// initialized on at least one path to each point (union meet), Must
// holds slots initialized on every path (intersect meet).
type InitFacts struct {
	May, Must *Result
}

// InitAnalysis solves forward initialization over scalar slots. A
// store (StLocal/StMono) initializes its slot; nothing ever
// de-initializes one. Remote-writable slots are treated as initialized
// from the start: another PE's router store may define them at any
// time, so claiming otherwise would be unsound.
func InitAnalysis(g *cfg.Graph, vars *Vars) *InitFacts {
	problem := func(meet MeetKind) Problem {
		return Problem{
			Dir:      Forward,
			Meet:     meet,
			Universe: g.Words,
			Boundary: vars.Remote.Clone(),
			Transfer: func(b *cfg.Block, in, out *bitset.Set) {
				out.CopyFrom(in)
				for _, instr := range b.Code {
					if instr.Op == ir.StLocal || instr.Op == ir.StMono {
						out.Add(int(instr.Imm))
					}
				}
			},
		}
	}
	return &InitFacts{
		May:  Solve(g, problem(Union)),
		Must: Solve(g, problem(Intersect)),
	}
}

// CheckUninitialized reports reads of named scalar variables before
// initialization.
//
// Poly (per-PE) variables are checked flow-sensitively along each PE's
// own path: a read with no initializing path at all is an error; a
// read initialized on some paths but not all is a warning.
//
// Mono (replicated) variables are shared: a store executed by any PE
// is visible to every PE, and under meta-state execution PEs at
// different source points run in lockstep, so path order between
// distinct PEs is not defined by the CFG. The check is therefore
// flow-insensitive for mono variables: an error is reported only when
// no reachable block stores the variable at all.
func CheckUninitialized(g *cfg.Graph, vars *Vars, facts *InitFacts, reach []bool) []Diagnostic {
	// monoStored: mono slots with at least one reachable store.
	monoStored := bitset.New(g.Words)
	for _, b := range g.Blocks {
		if b == nil || !reach[b.ID] {
			continue
		}
		for _, in := range b.Code {
			if in.Op == ir.StMono {
				monoStored.Add(int(in.Imm))
			}
		}
	}

	var diags []Diagnostic
	reportedMono := make(map[int]bool)
	may, must := bitset.New(g.Words), bitset.New(g.Words)
	for _, b := range g.Blocks {
		if b == nil || !reach[b.ID] {
			continue
		}
		may.CopyFrom(facts.May.In[b.ID])
		must.CopyFrom(facts.Must.In[b.ID])
		for _, in := range b.Code {
			slot := int(in.Imm)
			switch in.Op {
			case ir.LdMono:
				v, ok := vars.Scalar[slot]
				if ok && !monoStored.Has(slot) && !vars.Remote.Has(slot) && !reportedMono[slot] {
					reportedMono[slot] = true
					diags = append(diags, Diagnostic{
						Pos:   in.Pos,
						Sev:   SevError,
						Check: CheckUninit,
						Msg:   fmt.Sprintf("mono variable %s is used but never initialized", v.Name),
					})
				}
			case ir.LdLocal:
				v, ok := vars.Scalar[slot]
				if ok && !v.Mono && !vars.Remote.Has(slot) {
					switch {
					case !may.Has(slot):
						diags = append(diags, Diagnostic{
							Pos:   in.Pos,
							Sev:   SevError,
							Check: CheckUninit,
							Msg:   fmt.Sprintf("poly variable %s is used before initialization", v.Name),
						})
					case !must.Has(slot):
						diags = append(diags, Diagnostic{
							Pos:   in.Pos,
							Sev:   SevWarning,
							Check: CheckMaybeUninit,
							Msg:   fmt.Sprintf("poly variable %s may be used before initialization", v.Name),
						})
					}
				}
			case ir.StLocal, ir.StMono:
				may.Add(slot)
				must.Add(slot)
			}
		}
	}
	return diags
}

// reachableBlocks marks the blocks reachable from the program entry,
// indexed by block ID.
func reachableBlocks(g *cfg.Graph) []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []int{g.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.Block(id) == nil || seen[id] {
			continue
		}
		seen[id] = true
		stack = g.Blocks[id].AppendSuccs(stack)
	}
	return seen
}
