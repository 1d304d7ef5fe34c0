package analysis

import (
	"fmt"
	"math"
	"slices"

	"msc/internal/cfg"
	"msc/internal/ir"
)

// ConstVal is an abstract word: either a known integer constant or
// not-a-constant. Float values and anything touched by router traffic
// are conservatively unknown.
type ConstVal struct {
	Known bool
	Val   int64
}

// ConstResult holds, for each block, the slots known to hold a
// specific constant on every path reaching the block's entry. Each
// block's environment is a row of ConstVal with one column per tracked
// slot: a slot some StLocal/StMono writes that is not excluded — the
// only slots a replay can ever record a constant for. The rows of all
// blocks share one array, so the facts take blocks × tracked slots
// values.
type ConstResult struct {
	// slots lists the tracked slots in increasing order; a slot's
	// column is its index here. A slot not listed always reads unknown:
	// no StLocal/StMono writes it, or it is excluded — its value
	// another PE can change behind our back: remote-accessed slots
	// always, and mono slots stored after the common prologue (PEs at
	// different source points run in lockstep, so a divergent PE's
	// broadcast store can land anywhere on our path). A sorted list
	// rather than a table indexed by slot keeps the facts independent
	// of the program's memory size, which arrays make large.
	slots []int32
	// in holds the entry row of block ID i at [i*w, (i+1)*w), where w
	// is len(slots).
	in []ConstVal
}

// ConstFacts computes global must-constant facts by forward fixpoint:
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
//
// The fixpoint sweeps the blocks in ID order until a sweep changes no
// block's exit row. A block's entry row is the meet of its computed
// predecessors' exit rows, written in place; its exit row is the
// replay of its code over a copy of that entry row.
func ConstFacts(g *cfg.Graph, vars *Vars) *ConstResult {
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
	r := &ConstResult{}
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		for _, in := range b.Code {
			slot := int(in.Imm)
			if (in.Op == ir.StLocal || in.Op == ir.StMono) && slot >= 0 && slot <= math.MaxInt32 && !excluded.Has(slot) {
				r.slots = append(r.slots, int32(slot))
			}
		}
	}
	slices.Sort(r.slots)
	r.slots = slices.Compact(r.slots)

	n, w := len(g.Blocks), len(r.slots)
	from, to := edgeList(g)
	predStart, preds := adjacency(n, to, from)

	r.in = make([]ConstVal, n*w)
	out := make([]ConstVal, n*w)
	computed := make([]bool, n)
	env := &ConstEnv{res: r, row: make([]ConstVal, w)}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if b == nil {
				continue
			}
			id := b.ID
			row := r.in[id*w : (id+1)*w]
			if ps := preds[predStart[id]:predStart[id+1]]; id != g.Entry && len(ps) > 0 {
				// Meet the exit rows of the computed predecessors; one
				// not computed yet is ⊤ and adds no constraint.
				met := false
				for _, p := range ps {
					if !computed[p] {
						continue
					}
					po := out[int(p)*w : (int(p)+1)*w]
					if !met {
						copy(row, po)
						met = true
						continue
					}
					for c := range row {
						if row[c] != po[c] {
							row[c] = ConstVal{}
						}
					}
				}
				if !met {
					// Still ⊤: not yet reached from the entry. Leaving the
					// block uncomputed keeps it from constraining its
					// successors; if it stays unreached it is dead and its
					// row reads as unknown.
					continue
				}
			}
			env.load(row)
			for _, in := range b.Code {
				env.Step(in)
			}
			if o := out[id*w : (id+1)*w]; !computed[id] || !slices.Equal(env.row, o) {
				copy(o, env.row)
				computed[id] = true
				changed = true
			}
		}
	}
	return r
}

// StepNote reports what one abstract Step observed, beyond the state
// update itself: facts a diagnostic pass wants but the fixpoint does
// not need.
type StepNote struct {
	// DivByConstZero is set when a Div/Mod executed with a known
	// constant zero divisor: the machine totalizes the result to 0, but
	// the source almost certainly did not mean it.
	DivByConstZero bool
}

// ConstEnv is a mutable abstract machine state for replaying one
// block's stack code over the constant lattice: the constant row of
// the tracked slots plus the abstract evaluation stack. The
// optimizer's constant-materialization pass and the diagnostic checks
// both drive it instruction by instruction; ConstFacts' fixpoint uses
// it as its transfer function.
type ConstEnv struct {
	res   *ConstResult
	row   []ConstVal
	stack []ConstVal
	// poisoned is set when an unrecognized opcode makes the whole
	// environment untrustworthy; every fact reads unknown from then on.
	poisoned bool
}

// EnvAt returns a fresh replay state seeded with the facts holding at
// the named block's entry (per the ConstFacts fixpoint).
func (r *ConstResult) EnvAt(blockID int) *ConstEnv {
	e := &ConstEnv{res: r, row: make([]ConstVal, len(r.slots))}
	e.Enter(blockID)
	return e
}

// Enter resets the replay to the entry of the named block, reusing the
// state's storage: one ConstEnv can walk every block of a graph.
func (e *ConstEnv) Enter(blockID int) {
	var row []ConstVal
	if w := len(e.res.slots); blockID >= 0 && (blockID+1)*w <= len(e.res.in) {
		row = e.res.in[blockID*w : (blockID+1)*w]
	}
	e.load(row)
}

// load starts a replay from a copy of row (all unknown when nil) with
// an empty stack.
func (e *ConstEnv) load(row []ConstVal) {
	if row == nil {
		clear(e.row)
	} else {
		copy(e.row, row)
	}
	e.stack = e.stack[:0]
	e.poisoned = false
}

// column returns the slot's column, or -1 for an untracked slot.
func (r *ConstResult) column(slot int) int {
	if slot < 0 || slot > math.MaxInt32 {
		return -1
	}
	if c, ok := slices.BinarySearch(r.slots, int32(slot)); ok {
		return c
	}
	return -1
}

// Slot returns the constant known to be in a memory slot at the
// current replay point (unknown for excluded or untracked slots).
func (e *ConstEnv) Slot(slot int) ConstVal {
	c := e.res.column(slot)
	if e.poisoned || c < 0 {
		return ConstVal{}
	}
	return e.row[c]
}

// Top returns the abstract value on top of the evaluation stack, or
// unknown when the stack is empty at this replay point.
func (e *ConstEnv) Top() ConstVal {
	if e.poisoned || len(e.stack) == 0 {
		return ConstVal{}
	}
	return e.stack[len(e.stack)-1]
}

func (e *ConstEnv) pop() ConstVal {
	if len(e.stack) == 0 {
		return ConstVal{}
	}
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v
}

func (e *ConstEnv) push(v ConstVal) { e.stack = append(e.stack, v) }

// Step abstractly executes one instruction, updating the environment
// and stack, and reports any diagnostic-worthy observation.
func (e *ConstEnv) Step(in ir.Instr) StepNote {
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
		if c := e.res.column(slot); c >= 0 {
			if v.Known && !e.poisoned {
				e.row[c] = v
			} else {
				e.row[c] = unknown
			}
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
		if c := e.res.column(slot); c >= 0 {
			e.row[c] = unknown
		}
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
		clear(e.row)
		e.stack = e.stack[:0]
	}
	return note
}

// evalBinary folds an integer binary op over abstract operands. The
// compile-time fold helpers refuse division by constant zero and
// signed overflow, so those degrade to ⊤ instead of producing a
// constant the runtime would disagree about or silently wrap.
func evalBinary(op ir.Op, l, r ConstVal) ConstVal {
	if !l.Known || !r.Known {
		return ConstVal{}
	}
	v, ok := ir.FoldBinary(op, ir.Word(l.Val), ir.Word(r.Val))
	if !ok {
		return ConstVal{}
	}
	return ConstVal{Known: true, Val: int64(v)}
}

// CheckConstConditions reports branch conditions that are compile-time
// constants: the branch always goes the same way, so one arm is
// effectively dead. Info severity — constant entry guards are a normal
// byproduct of the §4.2 loop normalization.
func CheckConstConditions(g *cfg.Graph, consts *ConstResult, reach []bool) []Diagnostic {
	var diags []Diagnostic
	env := consts.EnvAt(cfg.None)
	for _, b := range g.Blocks {
		if b == nil || b.Term != cfg.Branch || !reach[b.ID] {
			continue
		}
		env.Enter(b.ID)
		for _, in := range b.Code {
			env.Step(in)
		}
		cond := env.Top()
		if !cond.Known {
			continue
		}
		way := "false"
		if cond.Val != 0 {
			way = "true"
		}
		pos := b.Pos
		if n := len(b.Code); n > 0 && b.Code[n-1].Pos.IsValid() {
			pos = b.Code[n-1].Pos
		}
		diags = append(diags, Diagnostic{
			Pos:   pos,
			Sev:   SevInfo,
			Check: CheckConstCond,
			Msg:   fmt.Sprintf("branch condition is always %s", way),
		})
	}
	return diags
}

// CheckDivByConstZero reports integer divisions and moduli whose
// divisor is a compile-time constant zero. The machine totalizes both
// to 0, so this is not a crash — but it is almost never what the
// source meant, and the optimizer deliberately refuses to fold it.
func CheckDivByConstZero(g *cfg.Graph, consts *ConstResult, reach []bool) []Diagnostic {
	var diags []Diagnostic
	env := consts.EnvAt(cfg.None)
	for _, b := range g.Blocks {
		if b == nil || !reach[b.ID] {
			continue
		}
		env.Enter(b.ID)
		for _, in := range b.Code {
			if env.Step(in).DivByConstZero {
				op := "division"
				if in.Op == ir.Mod {
					op = "modulo"
				}
				diags = append(diags, Diagnostic{
					Pos:   in.Pos,
					Sev:   SevWarning,
					Check: CheckDivByZero,
					Msg:   fmt.Sprintf("%s by constant zero always yields 0 on this machine", op),
				})
			}
		}
	}
	return diags
}

// CheckUnreachableCode reports blocks that can never execute. Only
// blocks carrying instructions are reported: the builder leaves empty
// synthetic blocks (join points after returns, loop exits of infinite
// loops) that are not source-level dead code.
func CheckUnreachableCode(g *cfg.Graph, reach []bool) []Diagnostic {
	var diags []Diagnostic
	for _, b := range g.Blocks {
		if b == nil || reach[b.ID] || len(b.Code) == 0 {
			continue
		}
		pos := b.Pos
		if b.Code[0].Pos.IsValid() {
			pos = b.Code[0].Pos
		}
		if !pos.IsValid() {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   pos,
			Sev:   SevWarning,
			Check: CheckUnreachable,
			Msg:   "unreachable code",
		})
	}
	return diags
}
