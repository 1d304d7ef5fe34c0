package analysis

// The map-keyed dataflow engine as it stood before the block-indexed
// rewrite, kept verbatim (identifiers renamed only) as the oracle the
// equivalence tests compare Solve and ConstFacts against: the solver,
// the constant fixpoint and its replay state, and the three analyses
// built on the solver, with their transfers in the old clone-and-return
// form.

import (
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
)

// referenceProblem is a monotone bit-vector dataflow problem over a MIMD state
// graph. Facts are bit sets over [0, Universe); Transfer maps a block's
// flow input to its flow output (entry→exit facts for Forward
// problems, exit→entry facts for Backward ones) and must be monotone.
type referenceProblem struct {
	Dir  Direction
	Meet MeetKind
	// Universe is the fact-space width; Intersect problems use the full
	// universe as the optimistic initial value.
	Universe int
	// Boundary is the fact set at the flow boundary: the graph entry for
	// Forward problems, every exitless block (End/Halt terminators and
	// never-called function exits) for Backward ones. nil means empty.
	Boundary *bitset.Set
	// Transfer computes the block's flow output from its flow input. It
	// must not mutate in.
	Transfer func(b *cfg.Block, in *bitset.Set) *bitset.Set
}

// referenceResult holds the fixed-point facts per block ID. In is always the
// fact set at block entry and Out the set at block exit, regardless of
// the problem's direction.
type referenceResult struct {
	In, Out map[int]*bitset.Set
}

// referenceSolve runs worklist iteration to the (least for Union, greatest for
// Intersect) fixed point. Spawn edges and multiway-return edges are
// ordinary graph edges: facts flow into spawned children and across
// call returns.
func referenceSolve(g *cfg.Graph, p referenceProblem) *referenceResult {
	boundary := p.Boundary
	if boundary == nil {
		boundary = bitset.New(0)
	}
	top := func() *bitset.Set {
		s := bitset.New(p.Universe)
		if p.Meet == Intersect {
			for i := 0; i < p.Universe; i++ {
				s.Add(i)
			}
		}
		return s
	}

	// Dependency edges: the blocks a node's flow input meets over
	// (sources) and the blocks to re-queue when its output changes
	// (dependents).
	sources := make(map[int][]int)
	dependents := make(map[int][]int)
	var ids []int
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		ids = append(ids, b.ID)
		for _, s := range b.Succs() {
			if g.Block(s) == nil {
				continue
			}
			if p.Dir == Forward {
				sources[s] = append(sources[s], b.ID)
				dependents[b.ID] = append(dependents[b.ID], s)
			} else {
				sources[b.ID] = append(sources[b.ID], s)
				dependents[s] = append(dependents[s], b.ID)
			}
		}
	}
	atBoundary := func(b *cfg.Block) bool {
		if p.Dir == Forward {
			return b.ID == g.Entry
		}
		return len(b.Succs()) == 0
	}

	input := make(map[int]*bitset.Set, len(ids))
	output := make(map[int]*bitset.Set, len(ids))
	for _, id := range ids {
		input[id] = top()
		output[id] = top()
	}

	// Worklist in block order; order affects only convergence speed.
	queued := make(map[int]bool, len(ids))
	work := append([]int(nil), ids...)
	for _, id := range work {
		queued[id] = true
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		queued[id] = false
		b := g.Block(id)

		var acc *bitset.Set
		meet := func(s *bitset.Set) {
			if acc == nil {
				acc = s.Clone()
			} else if p.Meet == Union {
				acc.UnionWith(s)
			} else {
				acc = acc.Intersect(s)
			}
		}
		if atBoundary(b) {
			meet(boundary)
		}
		for _, src := range sources[id] {
			meet(output[src])
		}
		if acc == nil {
			// No boundary and no sources: unreachable in the flow
			// direction; keep the optimistic initial value.
			acc = top()
		}
		input[id] = acc
		next := p.Transfer(b, acc)
		if next.Equal(output[id]) {
			continue
		}
		output[id] = next
		for _, d := range dependents[id] {
			if !queued[d] {
				queued[d] = true
				work = append(work, d)
			}
		}
	}

	res := &referenceResult{In: input, Out: output}
	if p.Dir == Backward {
		res.In, res.Out = output, input
	}
	return res
}

// referenceConstResult holds, for each block, the slots known to hold a
// specific constant on every path reaching the block's entry.
type referenceConstResult struct {
	In map[int]map[int]ConstVal
	// excluded are slots whose value another PE can change behind our
	// back: remote-accessed slots always, and mono slots stored after
	// the common prologue (PEs at different source points run in
	// lockstep, so a divergent PE's broadcast store can land anywhere
	// on our path).
	excluded *bitset.Set
}

// referenceConstFacts computes global must-constant facts by forward fixpoint:
// a slot maps to a value at a block entry iff every predecessor path
// stores exactly that value last. Not-yet-computed predecessors are ⊤
// (optimistic initialization): they impose no constraint on the meet,
// so a fact that holds on the entry path and is preserved around a
// loop body — a debug flag set once and branched on inside the loop —
// survives at the loop head instead of being killed by the untaken
// back edge's initial bottom. Every abstract operation is monotone on
// the flat constant lattice, so iteration descends to the greatest
// fixed point, which is the sound answer for a must-analysis. Facts
// are recorded only for blocks reachable from the entry; everything
// else reads as unknown.
func referenceConstFacts(g *cfg.Graph, vars *Vars) *referenceConstResult {
	excluded := vars.Remote.Clone()
	for _, b := range g.Blocks {
		if b == nil || b.ID == g.Entry {
			continue
		}
		for _, in := range b.Code {
			if in.Op == ir.StMono {
				excluded.Add(int(in.Imm))
			}
		}
	}

	preds := make(map[int][]int)
	var ids []int
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		ids = append(ids, b.ID)
		for _, s := range b.Succs() {
			if g.Block(s) != nil {
				preds[s] = append(preds[s], b.ID)
			}
		}
	}

	in := make(map[int]map[int]ConstVal, len(ids))
	out := make(map[int]map[int]ConstVal, len(ids))
	computed := make(map[int]bool, len(ids))

	// meet intersects the out-facts of every computed predecessor; a
	// predecessor whose out-set has not been computed yet is ⊤ and adds
	// no constraint. nil (distinct from an empty map) means the block
	// itself is still ⊤: no computed predecessor reaches it.
	meet := func(id int) map[int]ConstVal {
		ps := preds[id]
		if id == g.Entry || len(ps) == 0 {
			return map[int]ConstVal{}
		}
		var acc map[int]ConstVal
		for _, p := range ps {
			if !computed[p] {
				continue
			}
			po := out[p]
			if acc == nil {
				acc = make(map[int]ConstVal, len(po))
				for slot, v := range po {
					acc[slot] = v
				}
				continue
			}
			for slot, v := range acc {
				if pv, ok := po[slot]; !ok || pv != v {
					delete(acc, slot)
				}
			}
		}
		return acc
	}

	equal := func(a, b map[int]ConstVal) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if bv, ok := b[k]; !ok || bv != v {
				return false
			}
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			newIn := meet(id)
			if newIn == nil {
				// Still ⊤: not yet reached from the entry. Leaving out/in
				// unset keeps the block from constraining its successors;
				// if it stays unreached it is dead and reads as unknown.
				continue
			}
			in[id] = newIn
			newOut, _ := referenceEvalBlock(g.Block(id), newIn, excluded)
			if !computed[id] || !equal(newOut, out[id]) {
				out[id] = newOut
				computed[id] = true
				changed = true
			}
		}
	}
	return &referenceConstResult{In: in, excluded: excluded}
}

// referenceConstEnv is a mutable abstract machine state for replaying one
// block's stack code over the constant lattice: the per-slot constant
// environment plus the abstract evaluation stack. The optimizer's
// constant-materialization pass and the diagnostic checks both drive
// it instruction by instruction; referenceConstFacts' fixpoint uses it as its
// transfer function.
type referenceConstEnv struct {
	env      map[int]ConstVal
	stack    []ConstVal
	excluded *bitset.Set
	// poisoned is set when an unrecognized opcode makes the whole
	// environment untrustworthy; every fact reads unknown from then on.
	poisoned bool
}

// EnvAt returns a fresh replay state seeded with the facts holding at
// the named block's entry (per the referenceConstFacts fixpoint).
func (r *referenceConstResult) EnvAt(blockID int) *referenceConstEnv {
	e := &referenceConstEnv{env: make(map[int]ConstVal), excluded: r.excluded}
	for k, v := range r.In[blockID] {
		e.env[k] = v
	}
	return e
}

// Slot returns the constant known to be in a memory slot at the
// current replay point (unknown for excluded or untracked slots).
func (e *referenceConstEnv) Slot(slot int) ConstVal {
	if e.poisoned || e.excluded.Has(slot) {
		return ConstVal{}
	}
	return e.env[slot]
}

// Top returns the abstract value on top of the evaluation stack, or
// unknown when the stack is empty at this replay point.
func (e *referenceConstEnv) Top() ConstVal {
	if e.poisoned || len(e.stack) == 0 {
		return ConstVal{}
	}
	return e.stack[len(e.stack)-1]
}

func (e *referenceConstEnv) pop() ConstVal {
	if len(e.stack) == 0 {
		return ConstVal{}
	}
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v
}

func (e *referenceConstEnv) push(v ConstVal) { e.stack = append(e.stack, v) }

// Step abstractly executes one instruction, updating the environment
// and stack, and reports any diagnostic-worthy observation.
func (e *referenceConstEnv) Step(in ir.Instr) StepNote {
	var note StepNote
	unknown := ConstVal{}
	slot := int(in.Imm)
	switch in.Op {
	case ir.PushC:
		if in.Ty == ir.Float {
			e.push(unknown)
		} else {
			e.push(ConstVal{Known: true, Val: in.Imm})
		}
	case ir.Dup:
		v := e.pop()
		e.push(v)
		e.push(v)
	case ir.Pop:
		for i := int64(0); i < in.Imm; i++ {
			e.pop()
		}
	case ir.LdLocal, ir.LdMono:
		e.push(e.Slot(slot))
	case ir.StLocal, ir.StMono:
		v := e.pop()
		if v.Known && !e.poisoned && !e.excluded.Has(slot) {
			e.env[slot] = v
		} else {
			delete(e.env, slot)
		}
	case ir.LdIndex:
		e.pop()
		e.push(unknown)
	case ir.StIndex:
		e.pop()
		e.pop()
	case ir.LdRemote:
		e.pop()
		e.push(unknown)
	case ir.StRemote:
		// A router store mutates some PE's copy of the slot —
		// possibly ours, via self-addressing — so the fact is gone.
		e.pop()
		e.pop()
		delete(e.env, slot)
	case ir.Neg, ir.BitNot, ir.LNot:
		v := e.pop()
		if !v.Known {
			e.push(unknown)
			break
		}
		if f, ok := ir.FoldUnary(in.Op, ir.Word(v.Val)); ok {
			e.push(ConstVal{Known: true, Val: int64(f)})
		} else {
			e.push(unknown)
		}
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod,
		ir.BitAnd, ir.BitOr, ir.BitXor, ir.Shl, ir.Shr,
		ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe, ir.CmpEq, ir.CmpNe:
		r, l := e.pop(), e.pop()
		if (in.Op == ir.Div || in.Op == ir.Mod) && r.Known && r.Val == 0 {
			note.DivByConstZero = true
		}
		e.push(evalBinary(in.Op, l, r))
	case ir.IProc, ir.NProc:
		e.push(unknown)
	case ir.I2F, ir.F2I:
		e.pop()
		e.push(unknown)
	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv,
		ir.FCmpLt, ir.FCmpLe, ir.FCmpGt, ir.FCmpGe, ir.FCmpEq, ir.FCmpNe:
		e.pop()
		e.pop()
		e.push(unknown)
	case ir.FNeg:
		e.pop()
		e.push(unknown)
	case ir.PushRet, ir.Nop:
	default:
		// Unknown op: give up on the whole environment.
		e.poisoned = true
		e.env = map[int]ConstVal{}
		e.stack = nil
	}
	return note
}

// referenceEvalBlock abstractly executes a block's stack code over the constant
// environment, returning the post-state and the final stack (top
// last). Unsupported operations and excluded slots produce unknowns.
func referenceEvalBlock(b *cfg.Block, env map[int]ConstVal, excluded *bitset.Set) (map[int]ConstVal, []ConstVal) {
	e := &referenceConstEnv{env: make(map[int]ConstVal, len(env)), excluded: excluded}
	for k, v := range env {
		e.env[k] = v
	}
	for _, in := range b.Code {
		e.Step(in)
	}
	if e.poisoned {
		return map[int]ConstVal{}, nil
	}
	return e.env, e.stack
}

// referenceInitFacts bundles the two initialization analyses: May holds slots
// initialized on at least one path to each point (union meet), Must
// holds slots initialized on every path (intersect meet).
type referenceInitFacts struct {
	May, Must *referenceResult
}

// referenceInitAnalysis solves forward initialization over scalar slots. A
// store (StLocal/StMono) initializes its slot; nothing ever
// de-initializes one. Remote-writable slots are treated as initialized
// from the start: another PE's router store may define them at any
// time, so claiming otherwise would be unsound.
func referenceInitAnalysis(g *cfg.Graph, vars *Vars) *referenceInitFacts {
	problem := func(meet MeetKind) referenceProblem {
		return referenceProblem{
			Dir:      Forward,
			Meet:     meet,
			Universe: g.Words,
			Boundary: vars.Remote.Clone(),
			Transfer: func(b *cfg.Block, in *bitset.Set) *bitset.Set {
				out := in.Clone()
				for _, instr := range b.Code {
					if instr.Op == ir.StLocal || instr.Op == ir.StMono {
						out.Add(int(instr.Imm))
					}
				}
				return out
			},
		}
	}
	return &referenceInitFacts{
		May:  referenceSolve(g, problem(Union)),
		Must: referenceSolve(g, problem(Intersect)),
	}
}

// referenceLiveness solves backward may liveness over memory slots. A slot is
// live at a point if some path from there reads it before overwriting
// it. Boundary facts: globals and return-value slots are live at every
// program exit (drivers read them back), and every remote-accessed slot
// is kept permanently live (another PE may read it at any time).
func referenceLiveness(g *cfg.Graph, vars *Vars) *referenceResult {
	boundary := vars.ExitLive.Union(vars.Remote)
	return referenceSolve(g, referenceProblem{
		Dir:      Backward,
		Meet:     Union,
		Universe: g.Words,
		Boundary: boundary,
		Transfer: func(b *cfg.Block, out *bitset.Set) *bitset.Set {
			live := out.Clone()
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
			return live
		},
	})
}

// referenceReachResult is the classic reaching-definitions solution: bit i of a
// block's In/Out set is set iff Sites[i] may reach that program point.
type referenceReachResult struct {
	Sites []DefSite
	*referenceResult
}

// referenceReachingDefs solves forward may reaching definitions over every
// scalar store (StLocal/StMono), compiler temporaries included.
func referenceReachingDefs(g *cfg.Graph) *referenceReachResult {
	var sites []DefSite
	defsOf := make(map[int][]int) // slot -> site ids defining it
	lastIn := make(map[int][]int) // block -> site ids of last defs per slot
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		last := make(map[int]int) // slot -> site id
		for i, in := range b.Code {
			if in.Op == ir.StLocal || in.Op == ir.StMono {
				id := len(sites)
				slot := int(in.Imm)
				sites = append(sites, DefSite{Block: b.ID, Index: i, Slot: slot, Pos: in.Pos})
				defsOf[slot] = append(defsOf[slot], id)
				last[slot] = id
			}
		}
		for _, id := range last {
			lastIn[b.ID] = append(lastIn[b.ID], id)
		}
	}

	gen := make(map[int]*bitset.Set)
	kill := make(map[int]*bitset.Set)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		g1 := bitset.New(len(sites))
		k1 := bitset.New(len(sites))
		for _, id := range lastIn[b.ID] {
			g1.Add(id)
			for _, other := range defsOf[sites[id].Slot] {
				if other != id {
					k1.Add(other)
				}
			}
		}
		gen[b.ID] = g1
		kill[b.ID] = k1
	}

	res := referenceSolve(g, referenceProblem{
		Dir:      Forward,
		Meet:     Union,
		Universe: len(sites),
		Transfer: func(b *cfg.Block, in *bitset.Set) *bitset.Set {
			return in.Minus(kill[b.ID]).Union(gen[b.ID])
		},
	})
	return &referenceReachResult{Sites: sites, referenceResult: res}
}
