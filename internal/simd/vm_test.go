package simd

import (
	"strings"
	"testing"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// tiny hand-built program: one MIMD state (0) that stores iproc*2 into
// slot 0 and ends.
func tinyProgram() *Program {
	g0 := bitset.Of(0)
	return &Program{
		Start:    0,
		Words:    2,
		NStates:  1,
		Barriers: bitset.New(0),
		Meta: []*MetaCode{{
			ID:  0,
			Set: g0.Clone(),
			Slots: []Slot{
				{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.IProc}},
				{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.PushC, Imm: 2}},
				{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.Mul}},
				{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.StLocal, Imm: 0}},
				{Kind: SlotEnd, Guard: g0},
			},
			Trans: Trans{Kind: TransNone},
		}},
	}
}

func TestTinyProgram(t *testing.T) {
	res, err := Run(tinyProgram(), Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		if got := res.Mem[pe][0]; got != ir.Word(pe*2) {
			t.Errorf("PE %d: slot 0 = %d, want %d", pe, got, pe*2)
		}
		if !res.Done[pe] {
			t.Errorf("PE %d not done", pe)
		}
	}
	if res.MetaExecs != 1 || res.SlotExecs != 5 {
		t.Errorf("meta=%d slots=%d", res.MetaExecs, res.SlotExecs)
	}
	// Everyone enabled for every body slot: utilization is body/total.
	if u := res.Utilization(4); u <= 0 || u > 1 {
		t.Errorf("utilization = %f", u)
	}
	if res.Time != res.BodyCycles+res.DispatchCycles {
		t.Errorf("time decomposition broken: %d != %d+%d", res.Time, res.BodyCycles, res.DispatchCycles)
	}
}

// twoStateProgram: state 0 branches each PE by parity: odd -> state 1
// sets slot to 111; even -> state 2 sets slot to 222; both end. The meta
// automaton is {0} -> {1,2} (both) with a switch.
func twoStateProgram() *Program {
	g0, g1, g2 := bitset.Of(0), bitset.Of(1), bitset.Of(2)
	return &Program{
		Start:    0,
		Words:    1,
		NStates:  3,
		Barriers: bitset.New(0),
		Meta: []*MetaCode{
			{
				ID: 0, Set: g0.Clone(),
				Slots: []Slot{
					{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.IProc}},
					{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.PushC, Imm: 2}},
					{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.Mod}},
					{Kind: SlotJumpF, Guard: g0, To: 1, FTo: 2},
				},
				Trans: Trans{Kind: TransSwitch, Entries: []DispatchEntry{
					{Key: bitset.Of(1), To: 1},
					{Key: bitset.Of(2), To: 2},
					{Key: bitset.Of(1, 2), To: 3},
				}},
			},
			{
				ID: 1, Set: g1.Clone(),
				Slots: []Slot{
					{Kind: SlotExec, Guard: g1, Instr: ir.Instr{Op: ir.PushC, Imm: 111}},
					{Kind: SlotExec, Guard: g1, Instr: ir.Instr{Op: ir.StLocal, Imm: 0}},
					{Kind: SlotEnd, Guard: g1},
				},
				Trans: Trans{Kind: TransNone},
			},
			{
				ID: 2, Set: g2.Clone(),
				Slots: []Slot{
					{Kind: SlotExec, Guard: g2, Instr: ir.Instr{Op: ir.PushC, Imm: 222}},
					{Kind: SlotExec, Guard: g2, Instr: ir.Instr{Op: ir.StLocal, Imm: 0}},
					{Kind: SlotEnd, Guard: g2},
				},
				Trans: Trans{Kind: TransNone},
			},
			{
				ID: 3, Set: bitset.Of(1, 2),
				Slots: []Slot{
					{Kind: SlotExec, Guard: g1, Instr: ir.Instr{Op: ir.PushC, Imm: 111}},
					{Kind: SlotExec, Guard: g2, Instr: ir.Instr{Op: ir.PushC, Imm: 222}},
					{Kind: SlotExec, Guard: bitset.Of(1, 2), Instr: ir.Instr{Op: ir.StLocal, Imm: 0}},
					{Kind: SlotEnd, Guard: bitset.Of(1, 2)},
				},
				Trans: Trans{Kind: TransNone},
			},
		},
	}
}

func TestBranchDispatchAndGuards(t *testing.T) {
	res, err := Run(twoStateProgram(), Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		want := ir.Word(222)
		if pe%2 == 1 {
			want = 111
		}
		if got := res.Mem[pe][0]; got != want {
			t.Errorf("PE %d: slot 0 = %d, want %d", pe, got, want)
		}
	}
	if res.MetaExecs != 2 {
		t.Errorf("meta execs = %d, want 2 (start + merged)", res.MetaExecs)
	}
}

func TestSingleParityDispatch(t *testing.T) {
	// With one PE, only one branch arm is taken: dispatch must pick the
	// singleton entry, not the merged one.
	res, err := Run(twoStateProgram(), Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mem[0][0]; got != 222 {
		t.Fatalf("PE 0: slot 0 = %d, want 222", got)
	}
}

func TestEnabledCyclesAccounting(t *testing.T) {
	res, err := Run(twoStateProgram(), Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnabledCycles <= 0 || res.EnabledCycles > res.BodyCycles*4 {
		t.Fatalf("enabled cycles %d out of range (body %d, N=4)", res.EnabledCycles, res.BodyCycles)
	}
	// In the merged state, constant pushes run half-enabled: utilization
	// must be strictly below 1.
	if u := res.Utilization(4); u >= 1 {
		t.Fatalf("utilization = %f, want < 1", u)
	}
}

func TestDispatchErrors(t *testing.T) {
	p := twoStateProgram()
	// Remove the merged entry: mixed parity has nowhere to go.
	p.Meta[0].Trans.Entries = p.Meta[0].Trans.Entries[:2]
	if _, err := Run(p, Config{N: 4}); err == nil ||
		!strings.Contains(err.Error(), "no dispatch entry") {
		t.Fatalf("missing dispatch not detected: %v", err)
	}
}

func TestSupersetDispatch(t *testing.T) {
	p := twoStateProgram()
	// Remove singleton entries but allow superset dispatch: everything
	// funnels into the merged state, which guards correctly.
	p.Meta[0].Trans.Entries = p.Meta[0].Trans.Entries[2:]
	p.SupersetDispatch = true
	res, err := Run(p, Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mem[0][0]; got != 222 {
		t.Fatalf("superset dispatch result = %d, want 222", got)
	}
}

func TestConfigValidation(t *testing.T) {
	p := tinyProgram()
	if _, err := Run(p, Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(p, Config{N: 2, InitialActive: 3}); err == nil {
		t.Fatal("InitialActive > N accepted")
	}
	bad := tinyProgram()
	bad.Meta[0].Set = bitset.Of(0, 1)
	if _, err := Run(bad, Config{N: 1}); err == nil {
		t.Fatal("multi-state start accepted")
	}
}

func TestNonTerminationGuard(t *testing.T) {
	p := tinyProgram()
	// Make state 0 loop to itself forever.
	p.Meta[0].Slots[4] = Slot{Kind: SlotSetPC, Guard: bitset.Of(0), To: 0}
	p.Meta[0].Trans = Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: bitset.Of(0), To: 0}}}
	if _, err := Run(p, Config{N: 1, MaxMeta: 10}); err == nil ||
		!strings.Contains(err.Error(), "non-terminating") {
		t.Fatalf("non-termination guard missing: %v", err)
	}
}

// TestStackUnderflowReported: an Add on an empty stack is refused by
// Run before anything runs and underflows in the reference.
func TestStackUnderflowReported(t *testing.T) {
	p := tinyProgram()
	p.Meta[0].Slots = []Slot{
		{Kind: SlotExec, Guard: bitset.Of(0), Instr: ir.Instr{Op: ir.Add}},
		{Kind: SlotEnd, Guard: bitset.Of(0)},
	}
	rejected(t, p, Config{N: 1}, "ms0 slot 0: state 0 is unbalanced: Add at depth 0", "PE 0 evaluation stack underflow")
}

func TestTransCostModel(t *testing.T) {
	goto1 := Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: bitset.Of(1), To: 1}}}
	if goto1.Cost() != GotoCost {
		t.Errorf("goto cost = %d", goto1.Cost())
	}
	goto1.ExitCheck = true
	if goto1.Cost() != GotoCost+GlobalOrCost {
		t.Errorf("goto+check cost = %d", goto1.Cost())
	}
	sw := Trans{Kind: TransSwitch}
	if sw.Cost() != GlobalOrCost+MapDispatchCost {
		t.Errorf("map switch cost = %d", sw.Cost())
	}
	sw.Hash = &HashFn{EvalCost: 4}
	if sw.Cost() != GlobalOrCost+HashDispatchBaseCost+4 {
		t.Errorf("hashed switch cost = %d", sw.Cost())
	}
}

func TestHashFnIndexAndString(t *testing.T) {
	h := &HashFn{ShiftA: 0, ShiftB: 6, UseB: true, Mask: 15}
	// The paper's ((apc >> 6) ^ apc) & 15 on BIT(2)|BIT(6).
	w := uint64(1<<2 | 1<<6)
	if got := h.Index(w); got != ((w>>0)^(w>>6))&15 {
		t.Errorf("Index = %d", got)
	}
	if !strings.Contains(h.String(), "^") {
		t.Errorf("String = %q", h.String())
	}
	hm := &HashFn{ShiftA: 64, UseMul: true, Mul: 3, ShiftM: 1, Mask: 7}
	if !strings.Contains(hm.String(), "*") {
		t.Errorf("mul String = %q", hm.String())
	}
}
