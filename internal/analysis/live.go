package analysis

import (
	"fmt"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// Liveness solves backward may liveness over memory slots. A slot is
// live at a point if some path from there reads it before overwriting
// it. Boundary facts: globals and return-value slots are live at every
// program exit (drivers read them back), and every remote-accessed slot
// is kept permanently live (another PE may read it at any time).
func Liveness(g *cfg.Graph, vars *Vars) *Result {
	boundary := vars.ExitLive.Union(vars.Remote)
	return Solve(g, Problem{
		Dir:      Backward,
		Meet:     Union,
		Universe: g.Words,
		Boundary: boundary,
		Transfer: func(b *cfg.Block, out, live *bitset.Set) {
			live.CopyFrom(out)
			for i := len(b.Code) - 1; i >= 0; i-- {
				in := b.Code[i]
				slot := int(in.Imm)
				switch in.Op {
				case ir.StLocal, ir.StMono:
					if !vars.Remote.Has(slot) {
						live.Remove(slot)
					}
				case ir.LdLocal, ir.LdMono:
					live.Add(slot)
				case ir.LdRemote, ir.StRemote:
					live.Add(slot)
				}
			}
		},
	})
}

// CheckDeadStores reports stores to named scalar variables whose value
// can never be observed: not read on any path before the next
// overwrite or program end. Stores immediately preceded by Dup are the
// store-load forwarding idiom (the folded `x = e; ... use x` shape
// where the use rides the stack) and are skipped — the value is
// observed even though the slot read was folded away.
func CheckDeadStores(g *cfg.Graph, vars *Vars, live *Result) []Diagnostic {
	var diags []Diagnostic
	cur := bitset.New(g.Words)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		cur.CopyFrom(live.Out[b.ID])
		// Walk backward replaying the block-local transfer so each store
		// sees the liveness immediately after it.
		type report struct {
			in ir.Instr
			v  Var
		}
		var dead []report
		for i := len(b.Code) - 1; i >= 0; i-- {
			in := b.Code[i]
			slot := int(in.Imm)
			switch in.Op {
			case ir.StLocal, ir.StMono:
				v, namedScalar := vars.Scalar[slot]
				if namedScalar && !vars.Remote.Has(slot) && !cur.Has(slot) &&
					!(i > 0 && b.Code[i-1].Op == ir.Dup) {
					dead = append(dead, report{in, v})
				}
				if !vars.Remote.Has(slot) {
					cur.Remove(slot)
				}
			case ir.LdLocal, ir.LdMono, ir.LdRemote, ir.StRemote:
				cur.Add(slot)
			}
		}
		for i := len(dead) - 1; i >= 0; i-- {
			d := dead[i]
			diags = append(diags, Diagnostic{
				Pos:   d.in.Pos,
				Sev:   SevWarning,
				Check: CheckDeadStore,
				Msg:   fmt.Sprintf("value stored to %s %s is never used", kind(d.v), d.v.Name),
			})
		}
	}
	return diags
}

// kind names a variable's storage class for messages.
func kind(v Var) string {
	if v.Mono {
		return "mono variable"
	}
	return "poly variable"
}
