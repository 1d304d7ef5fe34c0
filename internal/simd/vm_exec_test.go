package simd

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// execProgram wraps a code sequence in a single one-state program.
func execProgram(words int, code ...ir.Instr) *Program {
	g0 := bitset.Of(0)
	slots := make([]Slot, 0, len(code)+1)
	for _, in := range code {
		slots = append(slots, Slot{Kind: SlotExec, Guard: g0, Instr: in})
	}
	slots = append(slots, Slot{Kind: SlotEnd, Guard: g0})
	return &Program{
		Start: 0, Words: words, NStates: 1, Barriers: bitset.New(0),
		Meta: []*MetaCode{{ID: 0, Set: g0.Clone(), Slots: slots, Trans: Trans{Kind: TransNone}}},
	}
}

// refCheck runs p on the reference VM and on the vectorized VM at
// several worker counts, each with an exact profiler, and requires the
// same Result or error text and the same profiler attribution. It
// returns the reference's outcome.
func refCheck(t *testing.T, p *Program, conf Config) (*Result, error) {
	t.Helper()
	refProf := telemetry.NewProfiler(1)
	rc := conf
	rc.Profiler = refProf
	want, wantErr := ReferenceRun(p, rc)
	for _, w := range []int{1, 4, 0} {
		prof := telemetry.NewProfiler(1)
		vc := conf
		vc.Workers, vc.Profiler = w, prof
		got, err := Run(p, vc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("workers=%d: error %v, reference %v", w, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Result differs from the reference", w)
		}
		if prof.Total() != refProf.Total() || !reflect.DeepEqual(prof.Frames(), refProf.Frames()) {
			t.Fatalf("workers=%d: profiler got %d cycles %v, reference %d cycles %v",
				w, prof.Total(), prof.Frames(), refProf.Total(), refProf.Frames())
		}
	}
	return want, wantErr
}

func TestExecMemoryOps(t *testing.T) {
	// mem[0]=iproc; mem[1+mem[0]%2]=42 via indexing; dup/pop exercise.
	p := execProgram(4,
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.StLocal, Imm: 0},
		ir.Instr{Op: ir.LdLocal, Imm: 0},
		ir.Instr{Op: ir.PushC, Imm: 2},
		ir.Instr{Op: ir.Mod}, // index
		ir.Instr{Op: ir.PushC, Imm: 42},
		ir.Instr{Op: ir.StIndex, Imm: 1},
		ir.Instr{Op: ir.PushC, Imm: 7},
		ir.Instr{Op: ir.Dup},
		ir.Instr{Op: ir.Pop, Imm: 2},
	)
	res, err := Run(p, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 3; pe++ {
		if got := res.Mem[pe][1+pe%2]; got != 42 {
			t.Errorf("PE %d: indexed slot = %d, want 42", pe, got)
		}
	}
}

func TestExecLdIndex(t *testing.T) {
	p := execProgram(4,
		ir.Instr{Op: ir.PushC, Imm: 9},
		ir.Instr{Op: ir.StLocal, Imm: 2},
		ir.Instr{Op: ir.PushC, Imm: 2},
		ir.Instr{Op: ir.LdIndex, Imm: 0}, // mem[0+2]
		ir.Instr{Op: ir.StLocal, Imm: 3},
	)
	res, err := Run(p, Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[0][3] != 9 {
		t.Fatalf("LdIndex result = %d", res.Mem[0][3])
	}
}

func TestExecMonoBroadcast(t *testing.T) {
	p := execProgram(2,
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.StMono, Imm: 0},
		ir.Instr{Op: ir.LdMono, Imm: 0},
		ir.Instr{Op: ir.StLocal, Imm: 1},
	)
	res, err := Run(p, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Highest enabled PE wins the broadcast race.
	for pe := 0; pe < 4; pe++ {
		if res.Mem[pe][0] != 3 || res.Mem[pe][1] != 3 {
			t.Fatalf("PE %d: mono = %d/%d, want 3", pe, res.Mem[pe][0], res.Mem[pe][1])
		}
	}
}

func TestExecRemoteRing(t *testing.T) {
	// Each PE publishes iproc*10 then reads its left neighbor (wrap).
	p := execProgram(2,
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.PushC, Imm: 10},
		ir.Instr{Op: ir.Mul},
		ir.Instr{Op: ir.StLocal, Imm: 0},
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.PushC, Imm: 1},
		ir.Instr{Op: ir.Sub},
		ir.Instr{Op: ir.LdRemote, Imm: 0},
		ir.Instr{Op: ir.StLocal, Imm: 1},
	)
	res, err := Run(p, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	wants := []ir.Word{30, 0, 10, 20}
	for pe, want := range wants {
		if got := res.Mem[pe][1]; got != want {
			t.Errorf("PE %d: left = %d, want %d", pe, got, want)
		}
	}
}

func TestExecStRemote(t *testing.T) {
	// Each PE writes iproc into its right neighbor's slot 0.
	p := execProgram(1,
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.PushC, Imm: 1},
		ir.Instr{Op: ir.Add}, // dest pe
		ir.Instr{Op: ir.IProc},
		ir.Instr{Op: ir.StRemote, Imm: 0},
	)
	res, err := Run(p, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	wants := []ir.Word{2, 0, 1}
	for pe, want := range wants {
		if got := res.Mem[pe][0]; got != want {
			t.Errorf("PE %d: inbox = %d, want %d", pe, got, want)
		}
	}
}

func TestExecNProcAndUnary(t *testing.T) {
	p := execProgram(2,
		ir.Instr{Op: ir.NProc},
		ir.Instr{Op: ir.Neg},
		ir.Instr{Op: ir.StLocal, Imm: 0},
		ir.Instr{Op: ir.PushC, Imm: int64(ir.FloatWord(2.5))},
		ir.Instr{Op: ir.F2I},
		ir.Instr{Op: ir.StLocal, Imm: 1},
	)
	res, err := Run(p, Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[0][0] != -5 || res.Mem[0][1] != 2 {
		t.Fatalf("got %d, %d", res.Mem[0][0], res.Mem[0][1])
	}
}

// TestExecOutOfRangeAddress: a static and a computed address out of
// range fail at run time, as in the reference. Each fixture stores the
// value it loads, so its stack ends the body empty.
func TestExecOutOfRangeAddress(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []ir.Instr
		want string
	}{
		{"static", []ir.Instr{{Op: ir.LdLocal, Imm: 99}, {Op: ir.StLocal, Imm: 0}}, "memory address 99 out of range [0,1)"},
		{"negative index", []ir.Instr{{Op: ir.PushC, Imm: -7}, {Op: ir.LdIndex, Imm: 0}, {Op: ir.StLocal, Imm: 0}},
			"memory address -7 out of range [0,1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := refCheck(t, execProgram(1, tc.code...), Config{N: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestExecPopCount pins Pop's count to the reference's semantics, which
// pops Imm times: a negative count pops nothing, and a count past the
// stack depth underflows however large it is. Run refuses both
// programs up front, with the depth the reference underflows at.
func TestExecPopCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []ir.Instr
		want string
	}{
		{"negative", []ir.Instr{
			{Op: ir.PushC, Imm: 5}, {Op: ir.Pop, Imm: -1},
			{Op: ir.StLocal, Imm: 0}, {Op: ir.StLocal, Imm: 1},
		}, "ms0 slot 3: state 0 is unbalanced: StLocal(1) at depth 0"},
		{"beyond int32", []ir.Instr{{Op: ir.PushC, Imm: 5}, {Op: ir.Pop, Imm: 1 << 32}},
			"ms0 slot 1: state 0 is unbalanced: Pop(4294967296) at depth 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejected(t, execProgram(2, tc.code...), Config{N: 2}, tc.want, "PE 0 evaluation stack underflow")
		})
	}
}

func TestRetBrSlot(t *testing.T) {
	// State 0 pushes return site 1 and "calls" (SetPC) state 2, which
	// returns through RetBr; state 1 stores a marker and ends.
	g0, g1, g2 := bitset.Of(0), bitset.Of(1), bitset.Of(2)
	p := &Program{
		Start: 0, Words: 1, NStates: 3, Barriers: bitset.New(0),
		Meta: []*MetaCode{
			{ID: 0, Set: g0.Clone(), Slots: []Slot{
				{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.PushRet, Imm: 1}},
				{Kind: SlotSetPC, Guard: g0, To: 2},
			}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g2, To: 1}}}},
			{ID: 1, Set: g2.Clone(), Slots: []Slot{
				{Kind: SlotRetBr, Guard: g2},
			}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g1, To: 2}}}},
			{ID: 2, Set: g1.Clone(), Slots: []Slot{
				{Kind: SlotExec, Guard: g1, Instr: ir.Instr{Op: ir.PushC, Imm: 77}},
				{Kind: SlotExec, Guard: g1, Instr: ir.Instr{Op: ir.StLocal, Imm: 0}},
				{Kind: SlotEnd, Guard: g1},
			}, Trans: Trans{Kind: TransNone}},
		},
	}
	res, err := Run(p, Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[0][0] != 77 || res.Mem[1][0] != 77 {
		t.Fatalf("retbr path result = %d, %d", res.Mem[0][0], res.Mem[1][0])
	}
}

func TestRetBrUnderflow(t *testing.T) {
	g0 := bitset.Of(0)
	p := &Program{
		Start: 0, Words: 1, NStates: 1, Barriers: bitset.New(0),
		Meta: []*MetaCode{{ID: 0, Set: g0.Clone(), Slots: []Slot{
			{Kind: SlotRetBr, Guard: g0},
		}, Trans: Trans{Kind: TransNone}}},
	}
	if _, err := Run(p, Config{N: 1}); err == nil ||
		!strings.Contains(err.Error(), "return stack") {
		t.Fatalf("return stack underflow not reported: %v", err)
	}
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(twoStateProgram(), Config{N: 4, Sink: &obs.TextSink{Trace: &buf}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ms0") || !strings.Contains(out, "-> exit") {
		t.Fatalf("trace output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "apc=") || !strings.Contains(out, "live=") {
		t.Fatalf("trace missing fields:\n%s", out)
	}
}

func TestWaitFractionBounds(t *testing.T) {
	res, err := Run(twoStateProgram(), Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.WaitFraction(); w < 0 || w >= 1 {
		t.Fatalf("wait fraction = %f", w)
	}
	if b := res.BodyUtilization(4); b <= 0 || b > 1 {
		t.Fatalf("body utilization = %f", b)
	}
	empty := &Result{}
	if empty.WaitFraction() != 0 || empty.Utilization(4) != 0 || empty.BodyUtilization(4) != 0 {
		t.Fatalf("zero-result metrics should be 0")
	}
}

func TestUnknownOpcode(t *testing.T) {
	p := execProgram(1, ir.Instr{Op: ir.Op(250)})
	if _, err := Run(p, Config{N: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown opcode") {
		t.Fatalf("unknown opcode not reported: %v", err)
	}
}

func TestTerminalWithLivePEsError(t *testing.T) {
	g0 := bitset.Of(0)
	p := &Program{
		Start: 0, Words: 1, NStates: 1, Barriers: bitset.New(0),
		Meta: []*MetaCode{{ID: 0, Set: g0.Clone(), Slots: []Slot{
			{Kind: SlotExec, Guard: g0, Instr: ir.Instr{Op: ir.Nop}},
		}, Trans: Trans{Kind: TransNone}}},
	}
	if _, err := Run(p, Config{N: 1}); err == nil ||
		!strings.Contains(err.Error(), "terminal meta state") {
		t.Fatalf("live PEs at terminal state not reported: %v", err)
	}
}

func TestTimelineOutput(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(twoStateProgram(), Config{N: 4, Sink: &obs.TextSink{Timeline: &buf}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 { // two meta-state executions
		t.Fatalf("timeline rows = %d, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "ms0") || !strings.Contains(lines[0], "| 0 0 0 0 |") {
		t.Fatalf("first row unexpected: %q", lines[0])
	}
	// Second row: odd PEs at state 1, even at state 2.
	if !strings.Contains(lines[1], "| 2 1 2 1 |") {
		t.Fatalf("second row unexpected: %q", lines[1])
	}
}
