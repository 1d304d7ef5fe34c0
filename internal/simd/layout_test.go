package simd

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// TestValidate: Validate and Run refuse, with the same *ProgramError,
// every program whose state numbers, sizes or stack code would let
// Run index outside its tables, and accept a halt that drops values.
func TestValidate(t *testing.T) {
	g0 := bitset.Of(0)
	slot := func(k SlotKind) Slot { return Slot{Kind: k, Guard: g0} }
	with := func(edit func(p *Program), code ...ir.Instr) *Program {
		p := execProgram(1, code...)
		edit(p)
		return p
	}
	insert := func(k int, s Slot) func(p *Program) {
		return func(p *Program) { p.Meta[0].Slots = slices.Insert(p.Meta[0].Slots, k, s) }
	}
	first := func(s Slot) func(p *Program) { return insert(0, s) }
	for _, tc := range []struct {
		name string
		p    *Program
		want string // "" when the program is valid
	}{
		{"negative words", with(func(p *Program) { p.Words = -3 }), "negative Words -3"},
		{"guard out of range", with(func(p *Program) { p.Meta[0].Slots[0].Guard = bitset.Of(0, 5) }),
			"ms0 slot 0: guard names MIMD state 5, outside [0,1)"},
		{"nil guard", with(func(p *Program) { p.Meta[0].Slots[0].Guard = nil }), "ms0 slot 0: slot has no guard"},
		{"meta set out of range", with(func(p *Program) { p.Meta[0].Set = bitset.Of(4) }),
			"ms0: set names MIMD state 4, outside [0,1)"},
		{"meta ID", with(func(p *Program) { p.Meta[0].ID = 3 }), "ms0: carries ID 3"},
		{"goto nowhere", with(func(p *Program) { p.Meta[0].Trans = Trans{Kind: TransGoto} }),
			"ms0: goto transition has no dispatch entry"},
		{"JumpF false target", with(first(Slot{Kind: SlotJumpF, Guard: g0, FTo: 7})),
			"ms0 slot 0: JumpF false target 7 outside [0,1)"},
		{"spawn child", with(first(Slot{Kind: SlotSpawn, Guard: g0, ChildTo: -2})),
			"ms0 slot 0: Spawn child target -2 outside [0,1)"},
		{"PushRet token", with(func(*Program) {}, ir.Instr{Op: ir.PushRet, Imm: -1}),
			"ms0 slot 0: PushRet token -1 outside [0,1)"},
		{"JumpF on empty stack", with(first(slot(SlotJumpF))), "ms0 slot 0: state 0 is unbalanced: JumpF at depth 0"},
		{"halt drops values", with(insert(1, slot(SlotHalt)), ir.Instr{Op: ir.PushC, Imm: 1}), ""},
		{"halt resets depth", with(insert(1, slot(SlotHalt)), ir.Instr{Op: ir.PushC, Imm: 1}, ir.Instr{Op: ir.StLocal}),
			"ms0 slot 2: state 0 is unbalanced: StLocal(0) at depth 0"},
		{"value left", with(func(*Program) {}, ir.Instr{Op: ir.PushC, Imm: 1}),
			"ms0: state 0 is unbalanced: ends the body at depth 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errV := Validate(tc.p)
			_, errR := Run(tc.p, Config{N: 2})
			if tc.want == "" {
				if errV != nil || errR != nil {
					t.Fatalf("Validate = %v, Run = %v; want both to accept", errV, errR)
				}
				return
			}
			for what, err := range map[string]error{"Validate": errV, "Run": errR} {
				var pe *ProgramError
				if !errors.As(err, &pe) || !strings.HasSuffix(err.Error(), tc.want) {
					t.Errorf("%s = %v, want a *ProgramError ending %q", what, err, tc.want)
				}
			}
		})
	}
}
