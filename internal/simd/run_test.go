package simd

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/telemetry"
)

// These tests cover bodies whose chunk-local slots run as one pass per
// chunk (execBody). Chunks shrink to 64 PEs so a few hundred PEs span
// several chunks, and every case must match ReferenceRun exactly: the
// Result or error text, and the profiler attribution (refCheck).

var g1, g2, g12 = bitset.Of(1), bitset.Of(2), bitset.Of(1, 2)

// ex is a SlotExec slot.
func ex(g *bitset.Set, op ir.Op, imm int64) Slot {
	return Slot{Kind: SlotExec, Guard: g, Instr: ir.Instr{Op: op, Imm: imm}}
}

// splitProgram builds a two-meta-state program. Meta state 0 sends the
// PEs below split to MIMD state 1 and the rest to state 2; meta state 1
// is {1, 2} and runs body, then ends every PE. Each body slot carries
// its index plus one as its source line, so the profiler tells the
// slots apart.
func splitProgram(words, split int, body ...Slot) *Program {
	g0 := bitset.Of(0)
	slots := append(append([]Slot(nil), body...), Slot{Kind: SlotEnd, Guard: g12})
	for i := range slots {
		slots[i].Pos = ir.Pos{Line: i + 1}
	}
	return &Program{
		Start: 0, Words: words, NStates: 3, Barriers: bitset.New(0),
		Meta: []*MetaCode{
			{ID: 0, Set: g0.Clone(), Slots: []Slot{
				ex(g0, ir.IProc, 0),
				ex(g0, ir.PushC, int64(split)),
				ex(g0, ir.CmpLt, 0),
				{Kind: SlotJumpF, Guard: g0, To: 1, FTo: 2},
			}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g12, To: 1}}}},
			{ID: 1, Set: g12.Clone(), Slots: slots, Trans: Trans{Kind: TransNone}},
		},
	}
}

// rejected requires Run to refuse p with a *ProgramError whose text
// holds want, at every worker count, while ReferenceRun, which checks
// depths only as it pops, still fails at run time with refWant.
func rejected(t *testing.T, p *Program, conf Config, want, refWant string) {
	t.Helper()
	for _, w := range []int{1, 4, 0} {
		conf.Workers = w
		var pe *ProgramError
		if _, err := Run(p, conf); !errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: Run = %v, want a *ProgramError with %q", w, err, want)
		}
	}
	if _, err := ReferenceRun(p, conf); err == nil || !strings.Contains(err.Error(), refWant) {
		t.Fatalf("ReferenceRun = %v, want %q", err, refWant)
	}
}

// badIndex pushes k on state-g PEs and loads word k through LdIndex,
// out of range for a program of fewer than k words.
func badIndex(g *bitset.Set, k int64) []Slot {
	return []Slot{ex(g, ir.PushC, k), ex(g, ir.LdIndex, 0), ex(g, ir.StLocal, 0)}
}

// TestRunReportsLowestSlotFailure: chunk 1's PEs load an out-of-range
// address at slot 1 and chunk 0's at slot 4. Slot-by-slot execution
// reaches chunk 1's failure first, so that is the error, and the
// profiler is charged for no slot past it. The same shape built from
// stack underflows never runs: Run refuses it, and only the reference
// fails at run time.
func TestRunReportsLowestSlotFailure(t *testing.T) {
	defer SetChunkPEsForTest(64)()
	p := splitProgram(1, 64, append(badIndex(g2, 5), badIndex(g1, 7)...)...)
	_, err := refCheck(t, p, Config{N: 128})
	if err == nil || !strings.Contains(err.Error(), "memory address 5 out of range") {
		t.Fatalf("error = %v, want chunk 1's address 5", err)
	}
	prof := telemetry.NewProfiler(1)
	if _, err := Run(p, Config{N: 128, Workers: 4, Profiler: prof}); err == nil {
		t.Fatal("run succeeded")
	}
	for _, f := range prof.Frames() {
		if f.Frame.Meta == 1 && f.Frame.Pos.Line > 2 {
			t.Errorf("profiler charged slot %d, past the failing slot 1", f.Frame.Pos.Line-1)
		}
	}

	// State-2 PEs hold one word at an Add, and state-1 PEs one at a
	// Pop 2.
	rejected(t, splitProgram(1, 64,
		ex(g2, ir.PushC, 1), ex(g2, ir.Add, 0), ex(g1, ir.PushC, 1), ex(g1, ir.Pop, 2),
	), Config{N: 128}, "ms1 slot 1: state 2 is unbalanced: Add at depth 1", "PE 64 evaluation stack underflow")
}

// TestRunStaticErrorAfterEarlierFailure: an address or opcode error at
// slot k, which every chunk would hit, is reported only when no chunk
// failed at an earlier slot — here chunks 1 and 2 load an out-of-range
// address at slot 1.
func TestRunStaticErrorAfterEarlierFailure(t *testing.T) {
	defer SetChunkPEsForTest(64)()
	for _, tc := range []struct {
		name string
		body []Slot
		want string
	}{
		{"address after bad index", append(badIndex(g2, 5), ex(g12, ir.LdLocal, 99), ex(g12, ir.StLocal, 0)),
			"memory address 5 out of range"},
		{"opcode after bad index", append(badIndex(g2, 5), ex(g1, ir.Op(250), 0)),
			"memory address 5 out of range"},
		{"address alone", []Slot{ex(g2, ir.PushC, 1), ex(g2, ir.StLocal, 0), ex(g12, ir.LdLocal, 99), ex(g12, ir.StLocal, 0)},
			"memory address 99 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := refCheck(t, splitProgram(1, 64, tc.body...), Config{N: 192})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}

	// Chunk 1's PEs pop an empty stack at slot 0: Run refuses the
	// program, and the reference reports that underflow, not the later
	// static error.
	for _, tc := range []struct {
		name string
		body []Slot
	}{
		{"address after underflow", []Slot{ex(g2, ir.StLocal, 0), ex(g12, ir.LdLocal, 99)}},
		{"opcode after underflow", []Slot{ex(g2, ir.StLocal, 0), ex(g1, ir.Op(250), 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejected(t, splitProgram(1, 64, tc.body...), Config{N: 192},
				"ms1 slot 0: state 2 is unbalanced: StLocal(0) at depth 0", "PE 64 evaluation stack underflow")
		})
	}
}

// TestRunCrossChunkSlots: each PE stores a word that PEs in other
// chunks then read through the router in the same body, and a mono
// store is read back by every PE, on a width whose last chunk is
// partial.
func TestRunCrossChunkSlots(t *testing.T) {
	defer SetChunkPEsForTest(64)()
	const n = 150 // chunks of 64, 64 and 22 PEs
	p := splitProgram(5, 64,
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 10), ex(g12, ir.Mul, 0), ex(g12, ir.StLocal, 0),
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 64), ex(g12, ir.Add, 0),
		ex(g12, ir.LdRemote, 0), ex(g12, ir.StLocal, 1),
		ex(g2, ir.IProc, 0), ex(g2, ir.StMono, 2), ex(g12, ir.LdMono, 2), ex(g12, ir.StLocal, 3),
		ex(g1, ir.IProc, 0), ex(g1, ir.PushC, 70), ex(g1, ir.Add, 0), ex(g1, ir.IProc, 0),
		ex(g1, ir.StRemote, 4), ex(g12, ir.LdLocal, 4), ex(g12, ir.StLocal, 4),
	)
	res, err := refCheck(t, p, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range []int{0, 63, 64, 100, 149} {
		if got, want := res.Mem[pe][1], ir.Word(10*((pe+64)%n)); got != want {
			t.Errorf("PE %d: remote read %d, want %d", pe, got, want)
		}
		if got := res.Mem[pe][3]; got != n-1 {
			t.Errorf("PE %d: mono read %d, want %d", pe, got, n-1)
		}
	}
	if got := res.Mem[133][4]; got != 63 {
		t.Errorf("PE 133: remote write %d, want 63", got)
	}
}

// TestRunMixedDepthSlots: state-1 PEs keep one extra word under
// everything the body computes, so every g12 slot below reaches its
// two members at different depths and runs once per depth group. The
// split falls inside chunk 1, so chunk 1 runs both groups. Results,
// error text and profiler frames must match the reference: the
// highest PE wins the StMono, conflicting StRemote writes resolve in
// ascending PE order across the groups, and of two out-of-range
// LdIndex addresses in one chunk the lower PE's is reported.
func TestRunMixedDepthSlots(t *testing.T) {
	defer SetChunkPEsForTest(64)()
	const n, split = 200, 100 // chunks of 64, 64, 64 and 8 PEs
	mixed := func(p *Program, slots ...int) {
		t.Helper()
		lay, err := newLayout(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range slots {
			if g := lay.groups(lay.refs(1)[k]); len(g) != 2 {
				t.Fatalf("slot %d (%v) has %d depth groups, want 2", k, p.Meta[1].Slots[k].Instr, len(g))
			}
		}
	}

	p := splitProgram(5, split,
		ex(g1, ir.PushC, 1000),
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 3), ex(g12, ir.Mul, 0), ex(g12, ir.StLocal, 0), // 1-4
		ex(g12, ir.IProc, 0), ex(g12, ir.StMono, 1), // 5-6
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 70), ex(g12, ir.Add, 0), // 7-9
		ex(g12, ir.LdRemote, 0), ex(g12, ir.StLocal, 2), // 10-11
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 32), ex(g12, ir.Div, 0), ex(g12, ir.IProc, 0), // 12-15
		ex(g12, ir.StRemote, 3),                                        // 16: PE pe writes pe to PE pe/32
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 2), ex(g12, ir.Mod, 0), // 17-19
		Slot{Kind: SlotJumpF, Guard: g12, To: 1, FTo: 2}, // 20
		ex(g1, ir.StLocal, 4),
	)
	mixed(p, 1, 3, 4, 6, 10, 16, 20)
	res, err := refCheck(t, p, Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range []int{0, 63, 64, 99, 100, 127, 128, 199} {
		m := res.Mem[pe]
		if m[0] != ir.Word(3*pe) || m[1] != n-1 || m[2] != ir.Word(3*((pe+70)%n)) {
			t.Errorf("PE %d: words %v, want product %d, mono %d, remote read %d", pe, m[:3], 3*pe, n-1, 3*((pe+70)%n))
		}
		kept := ir.Word(0)
		if pe < split {
			kept = 1000
		}
		if m[4] != kept {
			t.Errorf("PE %d: kept word %d, want %d", pe, m[4], kept)
		}
	}
	// PE 3 is written by state-1 PEs 96-99 and state-2 PEs 100-127, all
	// in chunk 1: the highest writer wins only if the chunk replays its
	// two groups' writes in PE order.
	for tgt := 0; tgt < 7; tgt++ {
		if got, want := res.Mem[tgt][3], ir.Word(min(32*tgt+31, n-1)); got != want {
			t.Errorf("PE %d: remote write %d, want %d (the highest writer)", tgt, got, want)
		}
	}

	// PEs from 64 on index past the 4 words: in chunk 1, state-2 PEs
	// (depth 1, run first) fail from PE 100 at address 6 and state-1 PEs
	// (depth 2) from PE 64 at address 4.
	p = splitProgram(4, split,
		ex(g1, ir.PushC, 9),
		ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 16), ex(g12, ir.Div, 0),
		ex(g12, ir.LdIndex, 0), ex(g12, ir.StLocal, 0), // 4-5
		ex(g1, ir.StLocal, 1),
	)
	mixed(p, 1, 3, 4, 5)
	_, err = refCheck(t, p, Config{N: n})
	if err == nil || err.Error() != "simd: ms1: memory address 4 out of range [0,4)" {
		t.Fatalf("error = %v, want PE 64's address 4", err)
	}
}

// TestRunStacksGrowInSomeChunks: state-2 PEs (chunks 1 and 2) push 12
// words, so every chunk's evaluation stack has 12 rows, and 6 return
// sites, past its 4 return-stack rows into the PEs' own spills, while
// state-1 PEs (chunk 0) stay shallow. Every entry must be kept.
func TestRunStacksGrowInSomeChunks(t *testing.T) {
	defer SetChunkPEsForTest(64)()
	var body []Slot
	for k := 1; k <= 12; k++ {
		body = append(body, ex(g2, ir.PushC, int64(k)))
	}
	for k := 1; k < 12; k++ {
		body = append(body, ex(g2, ir.Add, 0))
	}
	body = append(body, ex(g2, ir.StLocal, 0), ex(g1, ir.IProc, 0), ex(g1, ir.StLocal, 0))
	res, err := refCheck(t, splitProgram(1, 64, body...), Config{N: 192})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[5][0] != 5 || res.Mem[100][0] != 78 || res.Mem[191][0] != 78 {
		t.Fatalf("sums = %d, %d, %d; want 5, 78, 78", res.Mem[5][0], res.Mem[100][0], res.Mem[191][0])
	}

	// State-2 PEs return through every spilled and row entry down to
	// the bottom one, to MIMD state 3, which meta state 2 ends.
	g3 := bitset.Of(3)
	body = []Slot{ex(g2, ir.PushRet, 3)}
	for k := 0; k < 5; k++ {
		body = append(body, ex(g2, ir.PushRet, 0))
	}
	for k := 0; k < 6; k++ {
		body = append(body, Slot{Kind: SlotRetBr, Guard: g2})
	}
	p := splitProgram(1, 64, body...)
	p.NStates = 4
	p.Meta[1].Slots[len(body)].Guard = g1
	p.Meta[1].Trans = Trans{Kind: TransGoto, ExitCheck: true, Entries: []DispatchEntry{{Key: g3, To: 2}}}
	p.Meta = append(p.Meta, &MetaCode{ID: 2, Set: g3.Clone(),
		Slots: []Slot{{Kind: SlotEnd, Guard: g3}}, Trans: Trans{Kind: TransNone}})
	res, err = refCheck(t, p, Config{N: 192})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetaStats[2].Visits != 1 {
		t.Fatalf("meta state 2 visits = %d, want 1", res.MetaStats[2].Visits)
	}
}

// recursionProgram builds a program whose one entry PE calls k·(m+1)
// deep and returns: meta state 0 pushes k exit sites (MIMD state 3),
// each visit to meta state 1 pushes k more return sites (state 2) until
// its counter reaches m, and each visit to meta state 2 returns k
// times.
func recursionProgram(k, m int) *Program {
	g0, g3 := bitset.Of(0), bitset.Of(3)
	var entry, descend, ascend []Slot
	for range k {
		entry = append(entry, ex(g0, ir.PushRet, 3))
		descend = append(descend, ex(g1, ir.PushRet, 2))
		ascend = append(ascend, Slot{Kind: SlotRetBr, Guard: g2})
	}
	entry = append(entry, Slot{Kind: SlotSetPC, Guard: g0, To: 1})
	descend = append(descend,
		ex(g1, ir.LdLocal, 0), ex(g1, ir.PushC, 1), ex(g1, ir.Add, 0), ex(g1, ir.Dup, 0), ex(g1, ir.StLocal, 0),
		ex(g1, ir.PushC, int64(m)), ex(g1, ir.CmpLt, 0), Slot{Kind: SlotJumpF, Guard: g1, To: 1, FTo: 2})
	sw := func(a, b int) Trans {
		return Trans{Kind: TransSwitch, Entries: []DispatchEntry{{Key: bitset.Of(a), To: a}, {Key: bitset.Of(b), To: b}}}
	}
	return &Program{
		Start: 0, Words: 1, NStates: 4, Barriers: bitset.New(0),
		Meta: []*MetaCode{
			{ID: 0, Set: g0.Clone(), Slots: entry, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g1, To: 1}}}},
			{ID: 1, Set: g1.Clone(), Slots: descend, Trans: sw(1, 2)},
			{ID: 2, Set: g2.Clone(), Slots: ascend, Trans: sw(2, 3)},
			{ID: 3, Set: g3.Clone(), Slots: []Slot{{Kind: SlotEnd, Guard: g3}}, Trans: Trans{Kind: TransNone}},
		},
	}
}

// TestRunDeepRecursion: one PE of a 4096-PE chunk calls about 10^5
// deep while the chunk's other PEs stay idle. The run must match the
// reference, and its allocation must grow with that PE's depth alone:
// return entries past a chunk's rows belong to the PE that pushed
// them, so they must not widen every PE's return stack.
func TestRunDeepRecursion(t *testing.T) {
	const k, m = 64, 1562
	depth := k * (m + 1)
	conf := Config{N: 4096, InitialActive: 1}
	res, err := refCheck(t, recursionProgram(k, m), conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[0][0] != m || !res.Done[0] {
		t.Fatalf("PE 0: counter %d, done %v; want %d, true", res.Mem[0][0], res.Done[0], m)
	}
	alloc := func(p *Program) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(p, conf); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	shallow, deep := alloc(recursionProgram(k, 1)), alloc(recursionProgram(k, m))
	if limit := uint64(16 * 4 * depth); deep > shallow+limit {
		t.Fatalf("depth %d allocated %d bytes beyond a %d-deep run, want at most %d (16 return entries per level)",
			depth, deep-shallow, 2*k, limit)
	}
	t.Logf("depth %d: %d bytes, depth %d: %d bytes", 2*k, shallow, depth, deep)
}

// wordsProgram builds a program that runs every slot kind with a
// full-mask-word path (execInstr, execLocal) under guards whose mask
// words are full, partial or empty, depending on split (see
// splitProgram), and whose commits group each word's PEs by (old pc,
// new pc) pair:
//
//   - meta state 1 runs every binary opcode and the data slots (NProc,
//     IProc, Dup, LdLocal, LdMono, StLocal) under g1, g2 and g12, then a
//     JumpF under g12 whose condition iproc%2 alternates its outcome
//     between neighbours, to states 3 and 4: at most 4 pairs a word;
//   - meta states 2 and 3 split every state by the next bit of iproc,
//     so the commit of meta state 3 spreads each word's PEs over 8
//     pairs, past commitPairs;
//   - meta state 4 sends every leaf to state 17 by one SetPC, again 8
//     pairs a word;
//   - meta states 5 and 6 split state 17 at split again, and end the
//     PEs below it and halt the rest.
//
// Every PE stores a marker in each state it passes, so a PE moved to
// the wrong state shows in Mem.
func wordsProgram(split int) *Program {
	gs := bitset.Of
	var body []Slot
	word := int64(0)
	store := func(g *bitset.Set) {
		body = append(body, ex(g, ir.StLocal, word))
		word++
	}
	for op := ir.Op(0); op < 255; op++ {
		if !ir.IsBinary(op) {
			continue
		}
		for _, g := range []*bitset.Set{g1, g2, g12} {
			body = append(body,
				ex(g, ir.IProc, 0), ex(g, ir.PushC, 37), ex(g, ir.Mul, 0), ex(g, ir.PushC, 3000), ex(g, ir.Sub, 0),
				ex(g, ir.IProc, 0), ex(g, ir.PushC, 7), ex(g, ir.Mod, 0), ex(g, ir.PushC, 3), ex(g, ir.Sub, 0),
				ex(g, op, 0))
			store(g)
		}
	}
	for _, g := range []*bitset.Set{g1, g2, g12} {
		body = append(body, ex(g, ir.NProc, 0), ex(g, ir.IProc, 0), ex(g, ir.Add, 0), ex(g, ir.Dup, 0), ex(g, ir.Add, 0))
		store(g)
		body = append(body, ex(g, ir.LdLocal, word-1), ex(g, ir.PushC, 5), ex(g, ir.Mul, 0))
		store(g)
		body = append(body, ex(g, ir.LdMono, word-2))
		store(g)
	}
	body = append(body, ex(g12, ir.IProc, 0), ex(g12, ir.PushC, 2), ex(g12, ir.Mod, 0))
	mark := word
	p := splitProgram(int(mark)+5, split, body...)
	p.NStates = 20
	m1 := p.Meta[1]
	m1.Slots[len(body)] = Slot{Kind: SlotJumpF, Guard: g12, To: 3, FTo: 4, Pos: m1.Slots[len(body)].Pos}
	m1.Trans = Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: gs(3, 4), To: 2}}}

	// level splits the PEs of states [lo, lo+k) by bit b of iproc, state
	// s to 2s-lo+k and the one after, in meta state id.
	level := func(id, lo, k, b int) *MetaCode {
		var states []int
		for s := lo; s < lo+k; s++ {
			states = append(states, s)
		}
		g := gs(states...)
		slots := []Slot{
			ex(g, ir.PushC, int64(id)), ex(g, ir.StLocal, mark+int64(id)-2),
			ex(g, ir.IProc, 0), ex(g, ir.PushC, int64(b)), ex(g, ir.Shr, 0), ex(g, ir.PushC, 1), ex(g, ir.BitAnd, 0),
		}
		for s := lo; s < lo+k; s++ {
			t := lo + k + 2*(s-lo)
			slots = append(slots, Slot{Kind: SlotJumpF, Guard: gs(s), To: t, FTo: t + 1})
		}
		next := make([]int, 2*k)
		for i := range next {
			next[i] = lo + k + i
		}
		return &MetaCode{ID: id, Set: g.Clone(), Slots: slots,
			Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: gs(next...), To: id + 1}}}}
	}
	g17, g18, g19, leaves := gs(17), gs(18), gs(19), gs(9, 10, 11, 12, 13, 14, 15, 16)
	var leafMarks []Slot
	for s := 9; s <= 16; s++ {
		leafMarks = append(leafMarks, ex(gs(s), ir.PushC, int64(s)), ex(gs(s), ir.StLocal, mark+4))
	}
	p.Meta = append(p.Meta,
		level(2, 3, 2, 1), level(3, 5, 4, 2),
		&MetaCode{ID: 4, Set: leaves.Clone(), Slots: append(leafMarks,
			ex(leaves, ir.IProc, 0), ex(leaves, ir.StLocal, mark+2), Slot{Kind: SlotSetPC, Guard: leaves, To: 17},
		), Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g17, To: 5}}}},
		&MetaCode{ID: 5, Set: g17.Clone(), Slots: []Slot{
			ex(g17, ir.PushC, 17), ex(g17, ir.StLocal, mark+3),
			ex(g17, ir.IProc, 0), ex(g17, ir.PushC, int64(split)), ex(g17, ir.CmpLt, 0),
			{Kind: SlotJumpF, Guard: g17, To: 18, FTo: 19},
		}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: gs(18, 19), To: 6}}}},
		&MetaCode{ID: 6, Set: gs(18, 19), Slots: []Slot{
			{Kind: SlotEnd, Guard: g18}, {Kind: SlotHalt, Guard: g19},
		}, Trans: Trans{Kind: TransNone}})
	for _, mc := range p.Meta[2:] {
		for i := range mc.Slots {
			mc.Slots[i].Pos = ir.Pos{Line: i + 1}
		}
	}
	return p
}

// TestRunFullPartialAndTailWords: at N = 200 in chunks of 128 PEs,
// words 0-2 hold 64 PEs each and word 3 only 8, the tail. The split
// points leave a state's words full, partial or empty: at 64 and 96
// state 1 fills word 0 and state 2 word 2, with word 1 whole in state 2
// or shared by both; at 200 state 2 is empty, and at 0 state 1. Every
// case must match ReferenceRun at every worker count: Results, error
// text and profiler frames.
func TestRunFullPartialAndTailWords(t *testing.T) {
	defer SetChunkPEsForTest(128)()
	if commitPairs >= 8 {
		t.Fatalf("commitPairs = %d: the 8-pair words no longer flush the gathered pairs", commitPairs)
	}
	const n = 200
	for _, split := range []int{64, 96, 200, 0} {
		res, err := refCheck(t, wordsProgram(split), Config{N: n})
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		for _, pe := range []int{0, 63, 64, 95, 96, 127, 128, 191, 192, 199} {
			m := res.Mem[pe]
			// A JumpF sends a true condition to its first target, so
			// the leaf counts up from 9 as bits 0, 1, 2 of pe clear.
			leaf := 9 + 4*(1-pe&1) + 2*(1-pe>>1&1) + (1 - pe>>2&1)
			want := []ir.Word{2, 3, ir.Word(pe), 17, ir.Word(leaf)}
			if got := m[len(m)-5:]; !slices.Equal(got, want) {
				t.Errorf("split %d PE %d: markers %v, want %v", split, pe, got, want)
			}
			if want := pe < split; res.Done[pe] != want {
				t.Errorf("split %d PE %d: done %v, want %v", split, pe, res.Done[pe], want)
			}
		}
	}
}

// TestHaltEmptiesReturnStack: each of the 128 active PEs pushes a
// return site, the PEs below split halt and the others spawn a child
// each into the free PEs, lowest first: the halted ones, then the 128
// never active. A halt empties the PE's return stack, so the children's
// RetBr underflows at PE 0, whose mask word halts whole at split 64 and
// in part at split 32.
func TestHaltEmptiesReturnStack(t *testing.T) {
	gs := bitset.Of
	g0, g3, g4, g5 := gs(0), gs(3), gs(4), gs(5)
	for _, split := range []int{64, 32} {
		p := &Program{
			Start: 0, Words: 1, NStates: 6, Barriers: bitset.New(0),
			Meta: []*MetaCode{
				{ID: 0, Set: g0.Clone(), Slots: []Slot{
					ex(g0, ir.PushRet, 1), ex(g0, ir.IProc, 0), ex(g0, ir.PushC, int64(split)), ex(g0, ir.CmpLt, 0),
					{Kind: SlotJumpF, Guard: g0, To: 1, FTo: 2},
				}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g2, To: 1}}}},
				{ID: 1, Set: g12.Clone(), Slots: []Slot{
					{Kind: SlotHalt, Guard: g1}, {Kind: SlotSetPC, Guard: g2, To: 3},
				}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: g3, To: 2}}}},
				{ID: 2, Set: g3.Clone(), Slots: []Slot{
					{Kind: SlotSpawn, Guard: g3, To: 4, ChildTo: 5},
				}, Trans: Trans{Kind: TransGoto, Entries: []DispatchEntry{{Key: gs(4, 5), To: 3}}}},
				{ID: 3, Set: gs(4, 5), Slots: []Slot{
					{Kind: SlotRetBr, Guard: g5}, {Kind: SlotEnd, Guard: g4},
				}, Trans: Trans{Kind: TransNone}},
			},
		}
		_, err := refCheck(t, p, Config{N: 256, InitialActive: 128})
		if err == nil || err.Error() != "simd: ms3: PE 0 return with empty return stack" {
			t.Fatalf("split %d: error %v, want PE 0's return stack underflow", split, err)
		}
	}
}
