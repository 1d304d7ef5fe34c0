package csi

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/mscerr"
)

func instr(op ir.Op, imm int64) ir.Instr { return ir.Instr{Op: op, Imm: imm} }

func thread(guardBit int, code ...ir.Instr) Thread {
	return Thread{Guard: bitset.Of(guardBit), Code: code}
}

// extract returns the per-thread projection of a schedule: the slots
// whose guard includes the thread's bit, in order.
func extract(s *Schedule, guardBit int) []ir.Instr {
	var out []ir.Instr
	for _, sl := range s.Slots {
		if sl.Guard.Has(guardBit) {
			out = append(out, sl.Instr)
		}
	}
	return out
}

func equalCode(a, b []ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func induce(t *testing.T, threads ...Thread) *Schedule {
	t.Helper()
	if err := compareWithReference(threads, Limits{}); err != nil {
		t.Fatal(err)
	}
	s, err := Induce(threads)
	if err != nil {
		t.Fatal(err)
	}
	// Universal invariant: each thread's projection is its original code.
	for _, th := range threads {
		bitID := th.Guard.Min()
		if got := extract(s, bitID); !equalCode(got, th.Code) {
			t.Fatalf("thread %s projection corrupted:\n got %v\nwant %v", th.Guard, got, th.Code)
		}
	}
	if s.Cost > s.NaiveCost {
		t.Fatalf("CSI made things worse: cost %d > naive %d", s.Cost, s.NaiveCost)
	}
	if s.Cost < s.LowerBound {
		t.Fatalf("cost %d below lower bound %d (bound bug)", s.Cost, s.LowerBound)
	}
	return s
}

func TestIdenticalThreadsFullyShare(t *testing.T) {
	code := []ir.Instr{instr(ir.LdLocal, 0), instr(ir.PushC, 1), ir.Instr{Op: ir.Add}, instr(ir.StLocal, 0)}
	s := induce(t,
		Thread{Guard: bitset.Of(2), Code: code},
		Thread{Guard: bitset.Of(6), Code: code},
	)
	if s.Cost != ir.CodeCost(code) {
		t.Fatalf("identical threads cost %d, want %d (full sharing)", s.Cost, ir.CodeCost(code))
	}
	if len(s.Slots) != len(code) {
		t.Fatalf("slots = %d, want %d", len(s.Slots), len(code))
	}
	for _, sl := range s.Slots {
		if sl.Guard.Len() != 2 {
			t.Fatalf("slot guard %s, want both threads", sl.Guard)
		}
	}
	if s.Saved() != ir.CodeCost(code) {
		t.Fatalf("saved = %d, want %d", s.Saved(), ir.CodeCost(code))
	}
}

func TestDisjointThreadsSerialize(t *testing.T) {
	s := induce(t,
		thread(1, instr(ir.PushC, 1), instr(ir.StLocal, 0)),
		thread(2, instr(ir.PushC, 2), instr(ir.StLocal, 1)),
	)
	// PushC(1) vs PushC(2) and StLocal(0) vs StLocal(1) differ: nothing
	// shareable.
	if s.Saved() != 0 {
		t.Fatalf("saved = %d on disjoint code, want 0", s.Saved())
	}
}

// TestListing1Threads mirrors the paper's example: the two do-while
// bodies x=1;test and x=2;test share everything except the pushed
// constant (see Listing 5's ms_2_6, where the common LdL/StL/Pop/LdL
// sequence is factored and only Push(1)/Push(2) stay guarded).
func TestListing1Threads(t *testing.T) {
	mkBody := func(c int64) []ir.Instr {
		return []ir.Instr{
			instr(ir.PushC, c),
			instr(ir.StLocal, 4),
			instr(ir.LdLocal, 4),
		}
	}
	s := induce(t,
		Thread{Guard: bitset.Of(2), Code: mkBody(1)},
		Thread{Guard: bitset.Of(6), Code: mkBody(2)},
	)
	// Shared: StLocal, LdLocal. Guarded: the two PushC.
	wantCost := ir.PushC.Cost()*2 + ir.StLocal.Cost() + ir.LdLocal.Cost()
	if s.Cost != wantCost {
		t.Fatalf("cost = %d, want %d\nslots: %v", s.Cost, wantCost, s.Slots)
	}
	if s.Cost != s.LowerBound {
		t.Fatalf("optimal schedule not found: cost %d, bound %d", s.Cost, s.LowerBound)
	}
}

func TestExpensiveOpsPrioritized(t *testing.T) {
	// Both threads contain an expensive Div at different positions among
	// sharable neighbors; CSI must still share it.
	s := induce(t,
		thread(1, instr(ir.PushC, 9), instr(ir.LdLocal, 0), ir.Instr{Op: ir.Div}, instr(ir.StLocal, 0)),
		thread(2, instr(ir.LdLocal, 0), instr(ir.PushC, 9), ir.Instr{Op: ir.Div}, instr(ir.StLocal, 0)),
	)
	divShared := false
	for _, sl := range s.Slots {
		if sl.Instr.Op == ir.Div && sl.Guard.Len() == 2 {
			divShared = true
		}
	}
	if !divShared {
		t.Fatalf("Div not shared:\n%v", s.Slots)
	}
}

func TestThreeThreads(t *testing.T) {
	common := []ir.Instr{instr(ir.LdLocal, 3), instr(ir.PushC, 1), ir.Instr{Op: ir.Add}, instr(ir.StLocal, 3)}
	uniq := func(g int) []ir.Instr {
		return append([]ir.Instr{instr(ir.PushC, int64(g)), instr(ir.StLocal, int64(10+g))}, common...)
	}
	s := induce(t,
		Thread{Guard: bitset.Of(1), Code: uniq(1)},
		Thread{Guard: bitset.Of(2), Code: uniq(2)},
		Thread{Guard: bitset.Of(3), Code: uniq(3)},
	)
	// The common tail must be fully shared across all three threads.
	if s.Cost != s.LowerBound {
		t.Fatalf("three-way sharing suboptimal: cost %d, bound %d\n%v", s.Cost, s.LowerBound, s.Slots)
	}
}

func TestRepeatedInstructionsKeepMultiplicity(t *testing.T) {
	// Thread 1 has Add twice, thread 2 once: schedule needs two Adds,
	// one shared at most.
	s := induce(t,
		thread(1, instr(ir.PushC, 1), instr(ir.PushC, 2), ir.Instr{Op: ir.Add}, instr(ir.PushC, 3), ir.Instr{Op: ir.Add}, instr(ir.Pop, 1)),
		thread(2, instr(ir.PushC, 4), instr(ir.PushC, 5), ir.Instr{Op: ir.Add}, instr(ir.Pop, 1)),
	)
	adds := 0
	for _, sl := range s.Slots {
		if sl.Instr.Op == ir.Add {
			adds++
		}
	}
	if adds != 2 {
		t.Fatalf("Add slots = %d, want 2", adds)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s := induce(t, thread(1))
	if len(s.Slots) != 0 || s.Cost != 0 {
		t.Fatalf("empty thread schedule = %v", s.Slots)
	}
	code := []ir.Instr{instr(ir.PushC, 7), instr(ir.StLocal, 2)}
	s = induce(t, Thread{Guard: bitset.Of(4), Code: code})
	if s.Cost != ir.CodeCost(code) || s.Saved() != 0 {
		t.Fatalf("single thread cost = %d", s.Cost)
	}
}

func TestGuardValidation(t *testing.T) {
	if _, err := Induce([]Thread{{Guard: bitset.New(0)}}); err == nil {
		t.Fatal("empty guard accepted")
	}
	if _, err := Induce([]Thread{thread(1), thread(1)}); err == nil {
		t.Fatal("overlapping guards accepted")
	}
	for _, threads := range [][]Thread{
		{{Guard: bitset.New(0)}},
		{thread(1), thread(1)},
		{thread(1), thread(2), {Guard: bitset.New(70)}},
		{thread(3), thread(2), thread(3), {Guard: bitset.New(0)}},
	} {
		if err := compareWithReference(threads, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickProjectionPreserved is the core CSI soundness property: for
// random threads, every thread's projection of the schedule equals its
// original code, and the cost never exceeds naive serialization.
func TestQuickProjectionPreserved(t *testing.T) {
	ops := []ir.Instr{
		instr(ir.PushC, 1), instr(ir.PushC, 2), instr(ir.LdLocal, 0),
		instr(ir.LdLocal, 1), ir.Instr{Op: ir.Add}, ir.Instr{Op: ir.Mul}, instr(ir.StLocal, 0),
		instr(ir.StLocal, 1), ir.Instr{Op: ir.Dup}, instr(ir.Pop, 1),
	}
	f := func(seed int64, nThreadsRaw, lenRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nThreads := int(nThreadsRaw%4) + 1
		threads := make([]Thread, nThreads)
		for i := range threads {
			n := int(lenRaw%12) + 1
			code := make([]ir.Instr, n)
			for j := range code {
				code[j] = ops[r.Intn(len(ops))]
			}
			threads[i] = Thread{Guard: bitset.Of(i), Code: code}
		}
		s, err := Induce(threads)
		if err != nil {
			return false
		}
		for i, th := range threads {
			if !equalCode(extract(s, i), th.Code) {
				return false
			}
		}
		return s.Cost <= s.NaiveCost && s.Cost >= s.LowerBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInduceTwoThreads(b *testing.B) {
	code := make([]ir.Instr, 40)
	for i := range code {
		code[i] = instr(ir.LdLocal, int64(i%5))
	}
	t1 := Thread{Guard: bitset.Of(1), Code: code}
	t2 := Thread{Guard: bitset.Of(2), Code: append([]ir.Instr{instr(ir.PushC, 1)}, code...)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Induce([]Thread{t1, t2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestImproveMergesAcrossAlignmentOrder builds the case progressive
// pairwise alignment gets wrong: thread 3 shares its Mul with thread 2
// and its Div with thread 1, but by the time thread 3 is aligned the
// schedule is [Div{1}, Mul{2}] and the LCS can only match one of them.
// The permutation-in-range improvement pass must merge the other.
func TestImproveMergesAcrossAlignmentOrder(t *testing.T) {
	s := induce(t,
		thread(1, ir.Instr{Op: ir.Div}),
		thread(2, ir.Instr{Op: ir.Mul}),
		thread(3, ir.Instr{Op: ir.Mul}, ir.Instr{Op: ir.Div}),
	)
	divs, muls := 0, 0
	for _, sl := range s.Slots {
		switch sl.Instr.Op {
		case ir.Div:
			divs++
		case ir.Mul:
			muls++
		}
	}
	if divs != 1 || muls != 1 {
		t.Fatalf("slots: %d Div + %d Mul, want 1 + 1 (improve pass failed)\n%v", divs, muls, s.Slots)
	}
	if s.Cost != s.LowerBound {
		t.Fatalf("cost %d != lower bound %d", s.Cost, s.LowerBound)
	}
}

// TestImproveRespectsOrderConflicts: A;B in one thread and B;A in the
// other cannot share both — merging would need a position both before
// and after the other slot.
func TestImproveRespectsOrderConflicts(t *testing.T) {
	s := induce(t,
		thread(1, ir.Instr{Op: ir.Div}, ir.Instr{Op: ir.Mul}),
		thread(2, ir.Instr{Op: ir.Mul}, ir.Instr{Op: ir.Div}),
	)
	// Exactly one of Div/Mul can be shared; schedule needs 3 slots.
	if len(s.Slots) != 3 {
		t.Fatalf("slots = %d, want 3\n%v", len(s.Slots), s.Slots)
	}
}

// ---- Equivalence with the reference ------------------------------------------

// compareWithReference runs InduceLimited and referenceInduce on the
// same threads and budget and describes the first difference: in the
// error text or BudgetError fields, or in any Schedule field, slot for
// slot.
func compareWithReference(threads []Thread, lim Limits) error {
	got, gotErr := InduceLimited(threads, lim)
	want, wantErr := referenceInduce(threads, lim)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var gb, wb *mscerr.BudgetError
		if errors.As(gotErr, &gb) != errors.As(wantErr, &wb) || gb != nil && *gb != *wb {
			return fmt.Errorf("budget error %+v, reference %+v", gb, wb)
		}
		return nil
	}
	if got.Cost != want.Cost || got.NaiveCost != want.NaiveCost ||
		got.LowerBound != want.LowerBound || got.NaiveSlots != want.NaiveSlots {
		return fmt.Errorf("cost/naive/bound/naive slots %d/%d/%d/%d, reference %d/%d/%d/%d",
			got.Cost, got.NaiveCost, got.LowerBound, got.NaiveSlots,
			want.Cost, want.NaiveCost, want.LowerBound, want.NaiveSlots)
	}
	if len(got.Slots) != len(want.Slots) {
		return fmt.Errorf("%d slots, reference %d", len(got.Slots), len(want.Slots))
	}
	for i, sl := range got.Slots {
		if w := want.Slots[i]; sl.Instr != w.Instr || !sl.Guard.Equal(w.Guard) {
			return fmt.Errorf("slot %d is %v%s, reference %v%s", i, sl.Instr, sl.Guard, w.Instr, w.Guard)
		}
	}
	return nil
}

// checkCandidateCount finds the smallest budget under which the kernel
// succeeds on threads by bisection, then requires the reference to
// behave identically at that budget and one below it. Both searches
// therefore examine the same number of candidate pairs and trip the
// budget at the same pair.
func checkCandidateCount(threads []Thread) error {
	ok := func(b int64) (bool, error) {
		_, err := InduceLimited(threads, Limits{MaxCandidates: b})
		var be *mscerr.BudgetError
		if err != nil && !errors.As(err, &be) {
			return false, err
		}
		return err == nil, nil
	}
	lo, hi := int64(0), int64(1) // the kernel fails at lo (or lo is 0) and succeeds at hi
	for {
		pass, err := ok(hi)
		if err != nil {
			return compareWithReference(threads, Limits{})
		}
		if pass {
			break
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass, _ := ok(mid); pass {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, b := range []int64{lo, hi} {
		if b == 0 {
			continue
		}
		if err := compareWithReference(threads, Limits{MaxCandidates: b}); err != nil {
			return fmt.Errorf("budget %d: %w", b, err)
		}
	}
	return nil
}

// refOps is the instruction table random and fuzzed thread sets draw
// from: few enough values that threads share, with Sym-carrying loads
// and stores that differ only in their symbol, a float constant that
// differs from an int one only in its type, and a zero-cost Nop the
// merge search must never pick.
var refOps = []ir.Instr{
	instr(ir.PushC, 1), instr(ir.PushC, 2), {Op: ir.PushC, Imm: 1, Ty: ir.Float},
	{Op: ir.Add}, {Op: ir.Mul}, {Op: ir.Div}, {Op: ir.Dup}, instr(ir.Pop, 1), {Op: ir.Nop},
	instr(ir.LdLocal, 0), instr(ir.StLocal, 0),
	{Op: ir.LdLocal, Sym: "x"}, {Op: ir.StLocal, Sym: "x"}, {Op: ir.StLocal, Sym: "y"},
	{Op: ir.LdMono, Imm: 1, Sym: "g"}, {Op: ir.StMono, Imm: 1, Sym: "g"}, {Op: ir.LdRemote, Imm: 2},
}

// randomThreads draws 1–8 threads with distinct guard bits below 130,
// so guards span up to three words, each with up to maxLen
// instructions from a random subset of refOps at random positions.
func randomThreads(r *rand.Rand, maxLen int) []Thread {
	ops := r.Perm(len(refOps))[:2+r.Intn(len(refOps)-1)]
	guards := r.Perm(130)
	threads := make([]Thread, 1+r.Intn(8))
	for i := range threads {
		code := make([]ir.Instr, r.Intn(maxLen+1))
		for j := range code {
			code[j] = refOps[ops[r.Intn(len(ops))]]
			code[j].Pos = ir.Pos{Line: r.Intn(4), Col: r.Intn(3)}
		}
		threads[i] = Thread{Guard: bitset.Of(guards[i]), Code: code}
	}
	return threads
}

// TestKernelMatchesReferenceRandom compares the kernel with the
// reference on 12,000 random thread sets, every other one under a
// candidate budget small enough to trip on many of them.
func TestKernelMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tripped := 0
	for i := 0; i < 12000; i++ {
		threads := randomThreads(r, 16)
		var lim Limits
		if i%2 == 1 {
			lim.MaxCandidates = 1 + r.Int63n(60)
			if _, err := InduceLimited(threads, lim); err != nil {
				tripped++
			}
		}
		if err := compareWithReference(threads, lim); err != nil {
			t.Fatalf("set %d, limits %+v: %v\nthreads: %v", i, lim, err, threads)
		}
	}
	// The budgeted half must exercise both outcomes, or the comparison
	// proves less than it claims.
	if tripped < 500 || tripped > 5500 {
		t.Fatalf("%d of 6000 budgeted sets tripped the budget", tripped)
	}
}

// TestKernelCandidateCountRandom pins the candidate count itself on
// 1,000 random thread sets, longer ones than above so many merge rounds
// run.
func TestKernelCandidateCountRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		threads := randomThreads(r, 24)
		if err := checkCandidateCount(threads); err != nil {
			t.Fatalf("set %d: %v\nthreads: %v", i, err, threads)
		}
	}
}

// decodeThreads turns fuzz bytes into a thread set and a budget: an
// optional budget byte, a thread count of 1–8, then per thread a guard
// bit (moved up to the next free one, so guards stay distinct), a code
// length below 24 and an op and a position byte per instruction.
// Missing bytes read as zero.
func decodeThreads(data []byte) ([]Thread, Limits) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var lim Limits
	if b := next(); b&1 == 1 {
		lim.MaxCandidates = int64(b>>1) + 1
	}
	threads := make([]Thread, 1+next()%8)
	used := map[int]bool{}
	for i := range threads {
		bit := next()
		for used[bit] {
			bit++
		}
		used[bit] = true
		code := make([]ir.Instr, next()%24)
		for j := range code {
			code[j] = refOps[next()%len(refOps)]
			p := next()
			code[j].Pos = ir.Pos{Line: p >> 4, Col: p & 15}
		}
		threads[i] = Thread{Guard: bitset.Of(bit), Code: code}
	}
	return threads, lim
}

// FuzzInduce checks the kernel against the reference on fuzzed thread
// sets: schedule fields, error text and BudgetError fields must match.
func FuzzInduce(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 9, 0, 3, 0, 12, 0, 2, 4, 9, 0, 3, 0, 12, 0})
	f.Add([]byte{7, 2, 5, 4, 5, 0, 4, 1, 10, 0, 11, 0, 70, 4, 4, 1, 5, 0, 10, 0, 11, 0, 130, 2, 5, 3, 4, 3})
	f.Add([]byte{1, 7, 0, 2, 3, 0, 8, 0, 1, 2, 3, 0, 8, 0, 2, 2, 5, 0, 3, 0, 3, 1, 8, 0, 4, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		threads, lim := decodeThreads(data)
		if err := compareWithReference(threads, lim); err != nil {
			t.Fatalf("limits %+v: %v\nthreads: %v", lim, err, threads)
		}
	})
}

// ---- Reference ---------------------------------------------------------------
//
// referenceInduce is the schedule search InduceLimited replaced, kept as
// its oracle: it builds *node objects and a map-keyed linearization,
// rebuilds the reachability closure every merge round and compares
// ir.Instr values over all node pairs. Everything below this line is
// that implementation unchanged, apart from the entry point's name.
func referenceInduce(threads []Thread, lim Limits) (*Schedule, error) {
	// Instruction identity here is value identity: two instructions are
	// the same broadcast iff op/imm/type/symbol agree. Source positions
	// are diagnostic-only and must not split classes, so work on
	// canonicalized copies (the schedule's slots carry no positions).
	threads = append([]Thread(nil), threads...)
	for i := range threads {
		code := make([]ir.Instr, len(threads[i].Code))
		for j, in := range threads[i].Code {
			code[j] = in.Canon()
		}
		threads[i].Code = code
	}
	for i := range threads {
		if threads[i].Guard == nil || threads[i].Guard.Empty() {
			return nil, fmt.Errorf("csi: thread %d has empty guard", i)
		}
		for j := i + 1; j < len(threads); j++ {
			if threads[i].Guard.Intersects(threads[j].Guard) {
				return nil, fmt.Errorf("csi: thread guards %s and %s overlap",
					threads[i].Guard, threads[j].Guard)
			}
		}
	}

	naive, naiveSlots := 0, 0
	for _, t := range threads {
		naive += ir.CodeCost(t.Code)
		naiveSlots += len(t.Code)
	}

	sched := &Schedule{NaiveCost: naive, NaiveSlots: naiveSlots, LowerBound: lowerBound(threads)}
	g := buildGraph(threads)
	if err := g.improve(lim.MaxCandidates); err != nil {
		return nil, err
	}
	slots, err := g.linearize()
	if err != nil {
		return nil, err
	}
	sched.Slots = slots
	for _, sl := range sched.Slots {
		sched.Cost += sl.Instr.Cost()
	}
	return sched, nil
}

// lowerBound computes the classic class-count bound: for each distinct
// instruction value, at least max-per-thread occurrences must be
// broadcast no matter how threads share.
func lowerBound(threads []Thread) int {
	type class struct{ max, cur int }
	classes := make(map[ir.Instr]*class)
	for _, t := range threads {
		for k := range classes {
			classes[k].cur = 0
		}
		for _, in := range t.Code {
			c := classes[in]
			if c == nil {
				c = &class{}
				classes[in] = c
			}
			c.cur++
			if c.cur > c.max {
				c.max = c.cur
			}
		}
	}
	lb := 0
	for in, c := range classes {
		lb += c.max * in.Cost()
	}
	return lb
}

// ---- Precedence graph -------------------------------------------------------

type node struct {
	instr ir.Instr
	guard *bitset.Set
	// id is the node's index in graph.nodes (stable across merges; dead
	// nodes keep theirs), used to address reachability bitmaps.
	id int
	// seq[t] is the node's position in thread t's chain, or -1.
	seq  []int
	dead bool
}

type graph struct {
	nodes []*node
	// chains[t] lists thread t's nodes in program order.
	chains  [][]*node
	threads []Thread
}

// buildGraph seeds the schedule by progressive alignment: thread 0's
// code becomes the initial chain; each later thread is aligned against
// the current node order with a cost-weighted LCS.
func buildGraph(threads []Thread) *graph {
	g := &graph{threads: threads, chains: make([][]*node, len(threads))}
	order := []*node{}
	for t, th := range threads {
		order = g.alignThread(order, t, th)
	}
	return g
}

// alignThread merges thread t's code into the existing slot order,
// maximizing the cost of matched (shared) instructions; returns the new
// global order.
func (g *graph) alignThread(order []*node, t int, th Thread) []*node {
	n, m := len(order), len(th.Code)
	// dp[i][j]: best saved cost aligning order[i:] with code[j:].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			best := dp[i+1][j] // leave slot unshared
			if v := dp[i][j+1]; v > best {
				best = v // emit instruction as its own new slot
			}
			if order[i].instr == th.Code[j] {
				if v := dp[i+1][j+1] + th.Code[j].Cost(); v > best {
					best = v
				}
			}
			dp[i][j] = best
		}
	}

	var out []*node
	chain := make([]*node, 0, m)
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && order[i].instr == th.Code[j] &&
			dp[i][j] == dp[i+1][j+1]+th.Code[j].Cost():
			order[i].guard = order[i].guard.Union(th.Guard)
			order[i].seq[t] = len(chain)
			chain = append(chain, order[i])
			out = append(out, order[i])
			i, j = i+1, j+1
		case i < n && (j >= m || dp[i][j] == dp[i+1][j]):
			out = append(out, order[i])
			i++
		default:
			nd := g.newNode(th.Code[j], th.Guard)
			nd.seq[t] = len(chain)
			chain = append(chain, nd)
			out = append(out, nd)
			j++
		}
	}
	g.chains[t] = chain
	return out
}

func (g *graph) newNode(in ir.Instr, guard *bitset.Set) *node {
	nd := &node{instr: in, guard: guard.Clone(), id: len(g.nodes), seq: make([]int, len(g.threads))}
	for i := range nd.seq {
		nd.seq[i] = -1
	}
	g.nodes = append(g.nodes, nd)
	return nd
}

// succs returns the immediate per-thread successors of nd.
func (g *graph) succs(nd *node) []*node {
	var out []*node
	for t, pos := range nd.seq {
		if pos >= 0 && pos+1 < len(g.chains[t]) {
			out = append(out, g.chains[t][pos+1])
		}
	}
	return out
}

// reachability is the transitive closure of the precedence DAG as one
// bitmap per node: reach[a.id] has bit b.id set iff a path of precedence
// edges leads from a to b (excluding a itself). improve recomputes it
// once per merge instead of running a DFS per candidate pair — the old
// per-query DFS made each improvement round quadratic in pairs times
// linear in graph size.
type reachability struct {
	words int
	bits  [][]uint64
}

func (g *graph) closure() *reachability {
	n := len(g.nodes)
	r := &reachability{words: (n + 63) / 64, bits: make([][]uint64, n)}
	var dfs func(nd *node) []uint64
	dfs = func(nd *node) []uint64 {
		if r.bits[nd.id] != nil {
			return r.bits[nd.id]
		}
		b := make([]uint64, r.words)
		r.bits[nd.id] = b // written before recursing; sound on a DAG
		for _, s := range g.succs(nd) {
			b[s.id/64] |= 1 << (uint(s.id) % 64)
			for i, w := range dfs(s) {
				b[i] |= w
			}
		}
		return b
	}
	for _, nd := range g.nodes {
		if !nd.dead {
			dfs(nd)
		}
	}
	return r
}

// reaches reports whether a path of precedence edges leads from a to b
// (a == b counts as reached, matching the old DFS helper).
func (r *reachability) reaches(a, b *node) bool {
	if a == b {
		return true
	}
	return r.bits[a.id][b.id/64]>>(uint(b.id)%64)&1 == 1
}

// improve is the permutation-in-range search: repeatedly merge the most
// expensive pair of identical, guard-disjoint, order-independent slots.
// maxCandidates (0 = unlimited) bounds the total pairs examined; the
// overrun is a typed budget error so callers can fall back to the
// linear schedule deliberately.
func (g *graph) improve(maxCandidates int64) error {
	var candidates int64
	for {
		reach := g.closure()
		var bestA, bestB *node
		bestCost := 0
		for i, a := range g.nodes {
			if a.dead {
				continue
			}
			for _, b := range g.nodes[i+1:] {
				if b.dead || a.instr != b.instr || a.instr.Cost() <= bestCost {
					continue
				}
				if candidates++; maxCandidates > 0 && candidates > maxCandidates {
					return &mscerr.BudgetError{
						Phase: "csi", Resource: "csi_candidates",
						Limit: maxCandidates, Used: candidates,
					}
				}
				if a.guard.Intersects(b.guard) {
					continue
				}
				if reach.reaches(a, b) || reach.reaches(b, a) {
					continue
				}
				bestA, bestB = a, b
				bestCost = a.instr.Cost()
			}
		}
		if bestA == nil {
			return nil
		}
		// Merge bestB into bestA. The merge changes the precedence
		// relation (bestA inherits bestB's chain positions), so the
		// closure is recomputed on the next round.
		bestA.guard = bestA.guard.Union(bestB.guard)
		for t, pos := range bestB.seq {
			if pos >= 0 {
				bestA.seq[t] = pos
				g.chains[t][pos] = bestA
			}
		}
		bestB.dead = true
	}
}

// linearize topologically sorts the precedence DAG into the final slot
// order, preferring earlier positions in lower-numbered threads for
// determinism. A precedence cycle (impossible on a correct merge) is
// reported as an error rather than a panic so the pipeline stays up on
// the malformed meta state.
func (g *graph) linearize() ([]Slot, error) {
	next := make([]int, len(g.threads)) // next unscheduled position per chain
	var slots []Slot
	scheduled := map[*node]bool{}
	for {
		var pick *node
		for t := range g.chains {
			for next[t] < len(g.chains[t]) && scheduled[g.chains[t][next[t]]] {
				next[t]++
			}
			if next[t] >= len(g.chains[t]) {
				continue
			}
			cand := g.chains[t][next[t]]
			// cand is ready iff it is the next node in every chain it
			// belongs to.
			ready := true
			for ot, pos := range cand.seq {
				if pos >= 0 && (pos != next[ot] && !allScheduledBefore(g.chains[ot], pos, scheduled)) {
					ready = false
					break
				}
			}
			if ready && pick == nil {
				pick = cand
			}
		}
		if pick == nil {
			// Either done or stuck; stuck cannot happen on a DAG.
			allDone := true
			for t := range g.chains {
				if next[t] < len(g.chains[t]) {
					allDone = false
					break
				}
			}
			if allDone {
				return slots, nil
			}
			return nil, fmt.Errorf("csi: precedence cycle in linearize (merge bug; %d of %d nodes scheduled)",
				len(slots), len(g.nodes))
		}
		scheduled[pick] = true
		slots = append(slots, Slot{Guard: pick.guard, Instr: pick.instr})
	}
}

// allScheduledBefore reports whether every node before pos in chain is
// already scheduled.
func allScheduledBefore(chain []*node, pos int, scheduled map[*node]bool) bool {
	for i := 0; i < pos; i++ {
		if !scheduled[chain[i]] {
			return false
		}
	}
	return true
}
