// Package simd implements the SIMD target machine: a MasPar MP-1
// flavored virtual machine with a single control unit, N processing
// elements with private memory, activity (enable) masking, a global-or
// reduction network, a router for parallel subscripting, and broadcast
// mono stores. The control unit executes a Program — the compiled
// meta-state automaton — so PEs never fetch or decode instructions and
// hold no copy of the program, exactly the property §1.2 claims for
// meta-state converted code.
package simd

import (
	"fmt"
	"strings"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// Machine cost model for control operations (cycles). The per-opcode
// costs live in package ir; these cover the control unit.
const (
	// GlobalOrCost is one global-or reduction over all PE pc bits
	// (§3.2.3's aggregate collection; MasPar's global OR network).
	GlobalOrCost = 12
	// MapDispatchCost models a multiway branch dispatched through a
	// generic lookup when no customized hash function is attached.
	MapDispatchCost = 16
	// GotoCost is an unconditional control-unit jump.
	GotoCost = 1
	// HashDispatchBaseCost is the jump-table indexed branch itself; the
	// attached hash function's evaluation cost is added on top
	// ([Die92a]-style coding).
	HashDispatchBaseCost = 2
)

// SlotKind says what a slot does besides (or instead of) executing a
// plain instruction.
type SlotKind uint8

const (
	// SlotExec executes Instr on the enabled PEs.
	SlotExec SlotKind = iota
	// SlotSetPC sets the next pc of enabled PEs to To.
	SlotSetPC
	// SlotJumpF pops the condition on enabled PEs and sets next pc to To
	// when TRUE, FTo when FALSE (Listing 5's JumpF).
	SlotJumpF
	// SlotEnd marks enabled PEs done: they stop contributing apc bits.
	SlotEnd
	// SlotHalt returns enabled PEs to the free pool (§3.2.5).
	SlotHalt
	// SlotRetBr pops each enabled PE's return-site token into its next
	// pc: the §2.2 return-as-multiway-branch.
	SlotRetBr
	// SlotSpawn sets enabled (parent) PEs' next pc to To and, for each
	// parent, claims one free-pool PE whose next pc becomes ChildTo.
	SlotSpawn
)

// Slot is one control-unit broadcast: a guard over entry pc values and
// an action. Every PE pays the cycle cost whether enabled or not — that
// is the essence of SIMD serialization.
//
// Guard may be shared with other slots of the program (codegen builds
// one singleton guard per MIMD state); it must not be mutated.
type Slot struct {
	Kind    SlotKind
	Guard   *bitset.Set // enabled iff entry pc ∈ Guard
	Instr   ir.Instr    // SlotExec
	To, FTo int         // SlotSetPC/SlotJumpF/SlotSpawn targets
	ChildTo int         // SlotSpawn child entry
	// Block and Pos attribute the slot back to the MIMD source: Block is
	// the representative member state (the guard's minimum for CSI-merged
	// slots) and Pos the source position of the instruction in Block's
	// code or, for terminator slots, the block. The sampling profiler
	// folds engine cycles onto these.
	Block int
	Pos   ir.Pos
}

// Cost returns the slot's cycle cost.
func (s *Slot) Cost() int {
	switch s.Kind {
	case SlotExec:
		return s.Instr.Cost()
	case SlotSetPC:
		return 1
	case SlotJumpF, SlotSpawn:
		return 2
	case SlotEnd:
		return 0
	case SlotHalt:
		return 1
	case SlotRetBr:
		return 3
	}
	return 0
}

// DispatchEntry maps one barrier-filtered aggregate to the next meta
// state. Key is normally the target meta state's own Set, shared with
// every other entry that targets it; it must not be mutated.
type DispatchEntry struct {
	Key *bitset.Set
	To  int
}

// HashFn describes a customized hash function that maps the (≤64-state)
// apc words of this state's dispatch keys to dense, distinct indices so
// the multiway branch compiles to a jump table ([Die92a], §3.2).
type HashFn struct {
	// Index(w) = ((w >> ShiftA) ^ (w >> ShiftB) ^ (w * Mul >> ShiftM)) & Mask,
	// with unused components disabled via the flags below.
	ShiftA, ShiftB int
	UseB           bool
	Mul            uint64
	ShiftM         int
	UseMul         bool
	Mask           uint64
	// Table maps hash index to meta state ID; -1 entries are unreachable.
	Table []int
	// EvalCost is the hash evaluation cost in cycles.
	EvalCost int
}

// Index evaluates the hash on an apc word.
func (h *HashFn) Index(w uint64) uint64 {
	v := w >> uint(h.ShiftA)
	if h.UseB {
		v ^= w >> uint(h.ShiftB)
	}
	if h.UseMul {
		v ^= (w * h.Mul) >> uint(h.ShiftM)
	}
	return v & h.Mask
}

func (h *HashFn) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("(apc >> %d)", h.ShiftA))
	if h.UseB {
		parts = append(parts, fmt.Sprintf("(apc >> %d)", h.ShiftB))
	}
	if h.UseMul {
		parts = append(parts, fmt.Sprintf("((apc * %#x) >> %d)", h.Mul, h.ShiftM))
	}
	return fmt.Sprintf("(%s) & %#x", strings.Join(parts, " ^ "), h.Mask)
}

// TransKind classifies how a meta state transfers control (§3.2).
type TransKind uint8

const (
	// TransNone: no exit arc — the program ends here (§3.2.1).
	TransNone TransKind = iota
	// TransGoto: a single exit arc — an unconditional jump (§3.2.2);
	// entries has one element and no global-or is needed.
	TransGoto
	// TransSwitch: multiple exit arcs keyed by the aggregate pc
	// (§3.2.3/§3.2.4), optionally through a customized hash function.
	TransSwitch
)

// Trans is a meta state's compiled transition.
type Trans struct {
	Kind    TransKind
	Entries []DispatchEntry
	// ExitCheck forces a global-or to detect program completion even on
	// unconditional arcs (some member state has no exit arcs).
	ExitCheck bool
	// Hash, when non-nil, dispatches TransSwitch through a jump table.
	// Switches with identical entries may share one HashFn; it must not
	// be mutated.
	Hash *HashFn
}

// Cost returns the control cycles this transition costs per traversal.
func (t *Trans) Cost() int {
	switch t.Kind {
	case TransNone:
		return GlobalOrCost // still needs the aggregate to know everyone ended
	case TransGoto:
		c := GotoCost
		if t.ExitCheck {
			c += GlobalOrCost
		}
		return c
	case TransSwitch:
		c := GlobalOrCost
		if t.Hash != nil {
			c += HashDispatchBaseCost + t.Hash.EvalCost
		} else {
			c += MapDispatchCost
		}
		return c
	}
	return 0
}

// MetaCode is the compiled body of one meta state.
//
// A compiled program shares its sets instead of copying them: Set is
// the automaton state's own set and the dispatch keys that target this
// meta state, slot guards are shared across slots and meta states, and
// a hash function may serve several switches. Every reader (the VMs,
// the artifact codec, the Go backend, the MPL and Dot emitters, the
// profiler) only reads them; nothing may mutate them.
type MetaCode struct {
	ID    int
	Set   *bitset.Set // MIMD states merged into this meta state; read-only
	Slots []Slot
	Trans Trans
}

// Cost returns the body cost (slots) plus transition cost.
func (m *MetaCode) Cost() int {
	c := m.Trans.Cost()
	for i := range m.Slots {
		c += m.Slots[i].Cost()
	}
	return c
}

// Program is a compiled meta-state automaton ready for the SIMD machine.
type Program struct {
	Meta  []*MetaCode
	Start int
	// Words is the per-PE data memory size; NStates the MIMD pc domain.
	Words   int
	NStates int
	// Barriers is the set of barrier-wait pc values (§3.2.4 dispatch).
	Barriers *bitset.Set
	// SupersetDispatch permits dispatching an aggregate to the smallest
	// covering entry when no exact match exists (compressed/merged
	// automata, §2.5).
	SupersetDispatch bool
	// VarSlot/RetSlot mirror the source-level slot maps for drivers.
	VarSlot map[string]int
	RetSlot map[string]int
}

// String renders the program structure (not the MPL text; see the
// codegen package's EmitMPL for Listing 5 form).
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "start: ms%d; %d meta states; %d pc values; %d words/PE\n",
		p.Start, len(p.Meta), p.NStates, p.Words)
	for _, m := range p.Meta {
		fmt.Fprintf(&sb, "ms%d %s: %d slots, trans %d entries (cost %d)\n",
			m.ID, m.Set, len(m.Slots), len(m.Trans.Entries), m.Cost())
	}
	return sb.String()
}
