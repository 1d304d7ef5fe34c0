package simd

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"msc/internal/ir"
)

// ProgramError reports a program that breaks a rule Run relies on: a
// negative size, a MIMD state number outside [0, NStates), a goto
// transition with nowhere to go, or stack code that pops below a
// state's entry depth or ends a meta-state body with values left on a
// state's stack. Run returns it before it allocates anything, and
// artifact.Decode reports it as corrupt.
type ProgramError struct {
	// Meta and Slot locate the fault; Slot is -1 for a fault in the
	// meta state as a whole or at the end of its body, and both are -1
	// for one of the whole program.
	Meta, Slot int
	Reason     string
}

func (e *ProgramError) Error() string {
	switch {
	case e.Meta < 0:
		return "simd: invalid program: " + e.Reason
	case e.Slot < 0:
		return fmt.Sprintf("simd: invalid program: ms%d: %s", e.Meta, e.Reason)
	}
	return fmt.Sprintf("simd: invalid program: ms%d slot %d: %s", e.Meta, e.Slot, e.Reason)
}

// Validate checks p against the rules Run relies on: the checks Run
// makes before it allocates. Every program the pipeline compiles passes
// (cfg.Verify gives each block balanced stack code); artifact.Decode
// calls it on every decoded program. It allocates a handful of tables
// per program, none per slot.
func Validate(p *Program) error {
	var w walker
	return w.program(p)
}

// layout is a program's static evaluation-stack layout. Guards test the
// pc latched at meta-state entry, so every PE that enters a body in
// MIMD state s runs exactly the slots whose guard names s, from depth
// 0; its depth at each slot is therefore fixed by the code. A slot at
// depth d reads and writes rows d-1, d-2, ... of its chunk's stack and
// pushes to row d.
type layout struct {
	w walker
	// mem holds the guard members of every recorded slot, slot by slot,
	// each slot's sorted by the depth at which they reach it (stably, so
	// members of one depth stay in increasing order); grp holds the
	// depth groups.
	mem []int32
	grp []group
	// slots[meta][slot] locates the slot's members and groups; a meta
	// state's entry is recorded when it first runs (see refs), so a run
	// that visits a few meta states of a large program pays for those.
	slots [][]slotRef
	// rows is the deepest stack any state reaches, at least 1: each
	// chunk's evaluation stack has this many rows. ret reports whether
	// any slot pushes a return site; chunks hold return rows only then.
	rows int
	ret  bool
}

// group is the members mem[lo:hi] of one slot that reach it at depth d.
type group struct{ d, lo, hi int32 }

// slotRef locates one slot's members mem[lo:hi] and groups grp[g0:g1].
// A slot whose members all share a depth, the common case, has one
// group.
type slotRef struct{ lo, hi, g0, g1 int32 }

func (l *layout) members(r slotRef) []int32 { return l.mem[r.lo:r.hi] }
func (l *layout) groups(r slotRef) []group  { return l.grp[r.g0:r.g1] }

// newLayout validates p and sizes its layout.
func newLayout(p *Program) (*layout, error) {
	l := &layout{slots: make([][]slotRef, len(p.Meta))}
	if err := l.w.program(p); err != nil {
		return nil, err
	}
	l.rows, l.ret = max(int(l.w.deepest), 1), l.w.ret
	return l, nil
}

// refs returns meta state i's slot layout, recording it on first use.
// Only the coordinator calls it, before the pass that reads it.
func (l *layout) refs(i int) []slotRef {
	if l.slots[i] == nil {
		l.slots[i] = make([]slotRef, len(l.w.p.Meta[i].Slots))
		_ = l.w.body(i, l) // program accepted every body
	}
	return l.slots[i]
}

// walker walks meta-state bodies, tracking each guard member's depth
// with exactly the stack effect both VMs apply (ir.Op.StackEffect for
// an exec slot, a pop for SlotJumpF, a reset for SlotHalt) at the slot
// where it occurs.
type walker struct {
	p *Program
	// depth holds the depth of each state the current body's guards
	// name, valid where stamp holds that body's gen, so nothing is
	// cleared between bodies. Both grow with the largest state named so
	// far, never with NStates, which a forged program may set to
	// anything. named lists the body's states, and cur the current
	// slot's members with their depths.
	depth, stamp, named []int32
	cur                 []member
	gen                 int32
	deepest             int32 // deepest stack reached
	ret                 bool  // whether some slot pushes a return site
}

// member is a guard member st that reaches a slot at depth d.
type member struct{ d, st int32 }

// program applies the rules to every body of p.
func (w *walker) program(p *Program) error {
	w.p = p
	if p.Words < 0 {
		return &ProgramError{Meta: -1, Slot: -1, Reason: fmt.Sprintf("negative Words %d", p.Words)}
	}
	if p.NStates < 0 {
		return &ProgramError{Meta: -1, Slot: -1, Reason: fmt.Sprintf("negative NStates %d", p.NStates)}
	}
	for i := range p.Meta {
		if err := w.body(i, nil); err != nil {
			return err
		}
	}
	return nil
}

// body applies the rules to meta state i's body; when l is non-nil it
// also records the body's slots in l.
func (w *walker) body(i int, l *layout) error {
	p, mc := w.p, w.p.Meta[i]
	fail := func(slot int, format string, args ...any) error {
		return &ProgramError{Meta: i, Slot: slot, Reason: fmt.Sprintf(format, args...)}
	}
	target := func(j int, what string, t int64) error {
		if t < 0 || t >= int64(p.NStates) {
			return fail(j, "%s %d outside [0,%d)", what, t, p.NStates)
		}
		return nil
	}
	if mc.ID != i {
		return fail(-1, "carries ID %d", mc.ID)
	}
	if mc.Set != nil && mc.Set.Max() >= p.NStates {
		return fail(-1, "set names MIMD state %d, outside [0,%d)", mc.Set.Max(), p.NStates)
	}
	if mc.Trans.Kind == TransGoto && len(mc.Trans.Entries) == 0 {
		return fail(-1, "goto transition has no dispatch entry")
	}
	w.gen++
	w.named = w.named[:0]
	for j := range mc.Slots {
		s := &mc.Slots[j]
		if s.Guard == nil {
			return fail(j, "slot has no guard")
		}
		pop, push := 0, 0
		var err error
		switch s.Kind {
		case SlotExec:
			pop, push = s.Instr.Op.StackEffect(s.Instr.Imm)
			if s.Instr.Op == ir.PushRet {
				err = target(j, "PushRet token", s.Instr.Imm)
				w.ret = true
			}
		case SlotSetPC:
			err = target(j, "SetPC target", int64(s.To))
		case SlotJumpF:
			pop = 1
			err = cmp.Or(target(j, "JumpF target", int64(s.To)), target(j, "JumpF false target", int64(s.FTo)))
		case SlotSpawn:
			err = cmp.Or(target(j, "Spawn target", int64(s.To)), target(j, "Spawn child target", int64(s.ChildTo)))
		}
		if err != nil {
			return err
		}
		w.cur = w.cur[:0]
		for wi, x := range s.Guard.Words() {
			for ; x != 0; x &= x - 1 {
				st := wi<<6 + bits.TrailingZeros64(x)
				if st >= p.NStates {
					return fail(j, "guard names MIMD state %d, outside [0,%d)", s.Guard.Max(), p.NStates)
				}
				if st >= len(w.depth) {
					n := max(2*len(w.depth), (st|63)+1)
					w.depth = slices.Grow(w.depth, n-len(w.depth))[:n]
					w.stamp = slices.Grow(w.stamp, n-len(w.stamp))[:n]
				}
				d := int32(0)
				if w.stamp[st] == w.gen {
					d = w.depth[st]
				} else {
					w.stamp[st] = w.gen
					w.named = append(w.named, int32(st))
				}
				if int(d) < pop {
					what := "JumpF"
					if s.Kind == SlotExec {
						what = s.Instr.String()
					}
					return fail(j, "state %d is unbalanced: %s at depth %d", st, what, d)
				}
				nd := d - int32(pop) + int32(push)
				if s.Kind == SlotHalt {
					nd = 0
				}
				w.depth[st] = nd
				w.deepest = max(w.deepest, nd)
				if l != nil {
					w.cur = append(w.cur, member{d: d, st: int32(st)})
				}
			}
		}
		if l != nil {
			l.slots[i][j] = l.group(w.cur)
		}
	}
	for _, st := range w.named {
		if d := w.depth[st]; d != 0 {
			return fail(-1, "state %d is unbalanced: ends the body at depth %d", st, d)
		}
	}
	return nil
}

// group records one slot whose members, in increasing state order,
// reach it at the depths in cur: it appends them to l.mem sorted by
// depth, stably, with one group per depth.
func (l *layout) group(cur []member) slotRef {
	for k := 1; k < len(cur); k++ {
		if cur[k].d < cur[k-1].d {
			slices.SortStableFunc(cur, func(a, b member) int { return cmp.Compare(a.d, b.d) })
			break
		}
	}
	r := slotRef{lo: int32(len(l.mem)), g0: int32(len(l.grp))}
	for k, mb := range cur {
		if k == 0 || mb.d != cur[k-1].d {
			l.grp = append(l.grp, group{d: mb.d, lo: int32(len(l.mem))})
		}
		l.mem = append(l.mem, mb.st)
		l.grp[len(l.grp)-1].hi = int32(len(l.mem))
	}
	r.hi, r.g1 = int32(len(l.mem)), int32(len(l.grp))
	return r
}
