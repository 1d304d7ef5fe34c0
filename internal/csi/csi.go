// Package csi implements Common Subexpression Induction ("Common
// Subexpression Induction", Dietz, ICPP 1992; §3.1 of the MSC paper).
//
// A meta state that merged several MIMD states contains one instruction
// sequence per thread (per enabled set of SIMD PEs). A traditional SIMD
// machine must serialize different instructions, but any instruction
// that appears in more than one sequence can be executed by all of
// those threads at once: stack code makes this sound unconditionally,
// because a shared instruction operates on each PE's private stack and
// memory. CSI therefore searches for a schedule that interleaves the
// thread sequences, merging identical instructions under a union guard,
// to minimize total broadcast cycles.
//
// The implementation follows the paper's pipeline:
//
//   - the guarded precedence structure (its "guarded DAG") is each
//     thread's code in order, with guards naming the owning thread;
//   - inter-thread CSE is a progressive weighted alignment: each thread
//     is aligned against the schedule so far by dynamic programming that
//     maximizes the cycle cost of merged instructions (optimal for each
//     pair);
//   - the result seeds an improvement search in the spirit of the
//     paper's permutation-in-range pass: pairs of identical slots with
//     disjoint guards are merged whenever the precedence DAG admits a
//     common position (no path between them), until no merge helps;
//   - a theoretical lower bound (per-instruction-class maxima) is
//     computed for pruning and reporting.
//
// The search runs as a dense kernel: each distinct instruction value is
// interned to an int32 class once per call, and every later step —
// alignment, merge candidates, reachability and linearization — works
// on class ids and flat per-node tables (docs/PERFORMANCE.md, "Common
// subexpression induction").
package csi

import (
	"fmt"
	"sync"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/mscerr"
)

// Thread is one MIMD state's straight-line code within a meta state,
// guarded by the pc set that enables it (normally a single pc bit).
type Thread struct {
	Guard *bitset.Set
	Code  []ir.Instr
}

// Slot is one scheduled broadcast: the instruction and the union of the
// guards of every thread that executes it. A slot that one thread
// executes shares that thread's Guard, so callers must not mutate
// either.
type Slot struct {
	Guard *bitset.Set
	Instr ir.Instr
}

// Schedule is the CSI result.
type Schedule struct {
	Slots []Slot
	// Cost is the schedule's total broadcast cycles; NaiveCost is the
	// fully serialized cost (no sharing); LowerBound is the theoretical
	// minimum over all schedules.
	Cost       int
	NaiveCost  int
	LowerBound int
	// NaiveSlots is the slot count of the fully serialized schedule
	// (one broadcast per thread instruction, no sharing).
	NaiveSlots int
}

// Saved returns the cycles CSI recovered versus full serialization.
func (s *Schedule) Saved() int { return s.NaiveCost - s.Cost }

// SlotsSaved returns how many broadcast slots CSI merged away versus
// full serialization.
func (s *Schedule) SlotsSaved() int { return s.NaiveSlots - len(s.Slots) }

// Limits bounds the schedule search.
type Limits struct {
	// MaxCandidates caps the merge-candidate pairs the improvement
	// search may examine across all rounds; 0 means unlimited.
	// Exceeding it aborts with an *mscerr.BudgetError (resource
	// "csi_candidates") rather than silently truncating the search, so
	// the caller can degrade to the linear (serialized) schedule
	// explicitly.
	MaxCandidates int64
}

// Induce computes a CSI schedule for the given threads. Thread guards
// must be pairwise disjoint.
func Induce(threads []Thread) (*Schedule, error) {
	return InduceLimited(threads, Limits{})
}

// InduceLimited is Induce under a search budget.
func InduceLimited(threads []Thread, lim Limits) (*Schedule, error) {
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

	k := kernels.Get().(*kernel)
	defer func() {
		k.threads = nil // do not keep the caller's code alive in the pool
		kernels.Put(k)
	}()
	k.reset(threads)
	sched := &Schedule{LowerBound: k.lowerBound()}
	for _, t := range threads {
		sched.NaiveCost += ir.CodeCost(t.Code)
		sched.NaiveSlots += len(t.Code)
	}
	for t := range threads {
		k.align(t)
	}
	if err := k.improve(lim.MaxCandidates); err != nil {
		return nil, err
	}
	slots, err := k.linearize()
	if err != nil {
		return nil, err
	}
	sched.Slots = slots
	for _, sl := range sched.Slots {
		sched.Cost += sl.Instr.Cost()
	}
	return sched, nil
}

// kernel is one schedule search. Its nodes are the slots of the guarded
// precedence DAG, numbered in creation order; every per-node property
// lives in a flat table indexed by node id, so the search compares int32
// classes instead of ir.Instr values. The tables are recycled across
// calls.
type kernel struct {
	threads []Thread
	nt, tw  int // thread count; words per thread mask

	// Instruction identity is value identity: two instructions are the
	// same broadcast iff op/imm/type/symbol agree. Source positions are
	// diagnostic-only and must not split classes, so each instruction's
	// Canon() is interned once: classInstr[c] and classCost[c] are class
	// c's instruction and cycles, and code[off[t]:off[t+1]] is thread
	// t's code as class ids.
	ids        map[ir.Instr]int32
	classInstr []ir.Instr
	classCost  []int32
	code       []int32
	off        []int

	// chain[off[t]+p] is the node at position p of thread t's chain.
	chain []int32

	// Per node n: class[n]; seq[n*nt+t], n's position in thread t's
	// chain or -1; mask[n*tw:(n+1)*tw], the threads whose chains hold
	// n (node guards intersect iff masks do, since thread guards are
	// pairwise disjoint); sameNext[n], the next live node of n's class
	// in id order or -1; dead[n], merged into another node.
	class    []int32
	seq      []int32
	mask     []uint64
	sameNext []int32
	dead     []bool

	// order is the aligned node order so far, a topological order of
	// the DAG; out is its double buffer and dp the alignment table.
	order, out []int32
	dp         []int32

	// reach[n*rw:(n+1)*rw] has bit m set iff a path of precedence edges
	// leads from n to m (n itself excluded).
	reach []uint64
	rw    int
}

// kernels recycles kernel tables across calls: codegen runs one search
// per meta state, and most are a few instructions long.
var kernels = sync.Pool{New: func() any { return &kernel{ids: map[ir.Instr]int32{}} }}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset interns the threads' instructions and empties the node tables
// for a new search.
func (k *kernel) reset(threads []Thread) {
	k.threads, k.nt, k.tw = threads, len(threads), (len(threads)+63)/64
	k.off = resize(k.off, k.nt+1)
	k.off[0] = 0
	for t, th := range threads {
		k.off[t+1] = k.off[t] + len(th.Code)
	}
	total := k.off[k.nt]
	k.code = resize(k.code, total)
	k.classInstr, k.classCost = k.classInstr[:0], k.classCost[:0]
	clear(k.ids)
	for t, th := range threads {
		for j, in := range th.Code {
			in = in.Canon()
			c, ok := k.ids[in]
			if !ok {
				c = int32(len(k.classInstr))
				k.ids[in] = c
				k.classInstr = append(k.classInstr, in)
				k.classCost = append(k.classCost, int32(in.Cost()))
			}
			k.code[k.off[t]+j] = c
		}
	}
	k.chain = resize(k.chain, total)
	k.class, k.seq, k.mask, k.dead = k.class[:0], k.seq[:0], k.mask[:0], k.dead[:0]
	k.order, k.out = k.order[:0], k.out[:0]
}

// lowerBound computes the classic class-count bound: for each distinct
// instruction value, at least max-per-thread occurrences must be
// broadcast no matter how threads share.
func (k *kernel) lowerBound() int {
	most := make([]int32, len(k.classInstr))
	cur := make([]int32, len(k.classInstr))
	for t := 0; t < k.nt; t++ {
		code := k.code[k.off[t]:k.off[t+1]]
		for _, c := range code {
			cur[c]++
			most[c] = max(most[c], cur[c])
		}
		for _, c := range code {
			cur[c] = 0
		}
	}
	lb := 0
	for c, m := range most {
		lb += int(m) * int(k.classCost[c])
	}
	return lb
}

// newNode appends a node of class c that belongs to no chain yet.
func (k *kernel) newNode(c int32) int32 {
	n := int32(len(k.class))
	k.class = append(k.class, c)
	for t := 0; t < k.nt; t++ {
		k.seq = append(k.seq, -1)
	}
	for w := 0; w < k.tw; w++ {
		k.mask = append(k.mask, 0)
	}
	k.dead = append(k.dead, false)
	return n
}

// join puts node n at position p of thread t's chain.
func (k *kernel) join(n int32, t, p int) {
	k.seq[int(n)*k.nt+t] = int32(p)
	k.mask[int(n)*k.tw+t/64] |= 1 << (uint(t) % 64)
	k.chain[k.off[t]+p] = n
}

// align merges thread t's code into the node order, maximizing the cost
// of matched (shared) instructions: a cost-weighted LCS of the order so
// far against the code, in one flat table. Thread 0 aligns against the
// empty order and so becomes the initial chain.
func (k *kernel) align(t int) {
	order, code := k.order, k.code[k.off[t]:k.off[t+1]]
	n, m := len(order), len(code)
	w := m + 1
	// dp[i*w+j]: best saved cost aligning order[i:] with code[j:].
	k.dp = resize(k.dp, (n+1)*w)
	dp := k.dp
	clear(dp[n*w:])
	for i := n - 1; i >= 0; i-- {
		ci := k.class[order[i]]
		row, below := dp[i*w:(i+1)*w], dp[(i+1)*w:(i+2)*w]
		row[m] = 0
		for j := m - 1; j >= 0; j-- {
			best := below[j] // leave node unshared
			if v := row[j+1]; v > best {
				best = v // emit instruction as its own new node
			}
			if ci == code[j] {
				if v := below[j+1] + k.classCost[ci]; v > best {
					best = v
				}
			}
			row[j] = best
		}
	}

	out := k.out[:0]
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && k.class[order[i]] == code[j] &&
			dp[i*w+j] == dp[(i+1)*w+j+1]+k.classCost[code[j]]:
			k.join(order[i], t, j)
			out = append(out, order[i])
			i, j = i+1, j+1
		case i < n && (j >= m || dp[i*w+j] == dp[(i+1)*w+j]):
			out = append(out, order[i])
			i++
		default:
			nd := k.newNode(code[j])
			k.join(nd, t, j)
			out = append(out, nd)
			j++
		}
	}
	k.order, k.out = out, order
}

// closure computes reachability once, over the aligned DAG: a node
// reaches its chain successors and everything they reach, and the
// aligned order visits successors first when walked backwards.
func (k *kernel) closure() {
	nodes := len(k.class)
	k.rw = (nodes + 63) / 64
	k.reach = resize(k.reach, nodes*k.rw)
	clear(k.reach)
	for i := len(k.order) - 1; i >= 0; i-- {
		n := int(k.order[i])
		r := k.reach[n*k.rw : (n+1)*k.rw]
		for t, p := range k.seq[n*k.nt : (n+1)*k.nt] {
			if p < 0 || k.off[t]+int(p)+1 == k.off[t+1] {
				continue
			}
			s := int(k.chain[k.off[t]+int(p)+1])
			r[s/64] |= 1 << (uint(s) % 64)
			for w, x := range k.reach[s*k.rw : (s+1)*k.rw] {
				r[w] |= x
			}
		}
	}
}

// reaches reports whether a path of precedence edges leads from a to b.
func (k *kernel) reaches(a, b int32) bool {
	return k.reach[int(a)*k.rw+int(b)/64]>>(uint(b)%64)&1 == 1
}

// shareThread reports whether a and b lie on a common chain, i.e. their
// guards intersect.
func (k *kernel) shareThread(a, b int32) bool {
	ma, mb := k.mask[int(a)*k.tw:(int(a)+1)*k.tw], k.mask[int(b)*k.tw:(int(b)+1)*k.tw]
	for w := range ma {
		if ma[w]&mb[w] != 0 {
			return true
		}
	}
	return false
}

// improve is the permutation-in-range search: repeatedly merge the most
// expensive pair of identical, guard-disjoint, order-independent slots.
// Each round scans pairs (a, b), a < b, in node-id order, but only
// within a's class, so it examines — and counts against maxCandidates
// (0 = unlimited) — exactly the pairs an all-pairs scan comparing
// instructions would, and trips the budget at the same pair. The
// overrun is a typed budget error so callers can fall back to the
// linear schedule deliberately.
func (k *kernel) improve(maxCandidates int64) error {
	k.sameNext = resize(k.sameNext, len(k.class))
	last := make([]int32, len(k.classInstr)) // the lowest node of each class seen so far
	for c := range last {
		last[c] = -1
	}
	for n := len(k.class) - 1; n >= 0; n-- {
		k.sameNext[n], last[k.class[n]] = last[k.class[n]], int32(n)
	}
	k.closure()

	var candidates int64
	for {
		bestA, bestB, bestCost := int32(-1), int32(-1), int32(0)
		for a := range k.class {
			if k.dead[a] || k.classCost[k.class[a]] <= bestCost {
				continue
			}
			for b := k.sameNext[a]; b >= 0; b = k.sameNext[b] {
				if candidates++; maxCandidates > 0 && candidates > maxCandidates {
					return &mscerr.BudgetError{
						Phase: "csi", Resource: "csi_candidates",
						Limit: maxCandidates, Used: candidates,
					}
				}
				if k.shareThread(int32(a), b) || k.reaches(int32(a), b) || k.reaches(b, int32(a)) {
					continue
				}
				// Later pairs of a cost no more than this one, so the
				// first valid pair ends a's scan.
				bestA, bestB, bestCost = int32(a), b, k.classCost[k.class[a]]
				break
			}
		}
		if bestA < 0 {
			return nil
		}
		k.merge(bestA, bestB)
	}
}

// merge folds node b into node a (same class, disjoint guards, neither
// reaching the other): a takes b's chain positions, and reachability is
// updated in place. Identifying two unordered nodes creates no cycle,
// so afterwards a reaches reach(a) ∪ reach(b), and every node that
// reached a or b also reaches a and all of that.
func (k *kernel) merge(a, b int32) {
	for w := 0; w < k.tw; w++ {
		k.mask[int(a)*k.tw+w] |= k.mask[int(b)*k.tw+w]
	}
	for t, p := range k.seq[int(b)*k.nt : (int(b)+1)*k.nt] {
		if p >= 0 {
			k.seq[int(a)*k.nt+t] = p
			k.chain[k.off[t]+int(p)] = a
		}
	}
	k.dead[b] = true
	prev := a
	for k.sameNext[prev] != b {
		prev = k.sameNext[prev]
	}
	k.sameNext[prev] = k.sameNext[b]

	ra := k.reach[int(a)*k.rw : (int(a)+1)*k.rw]
	for w, x := range k.reach[int(b)*k.rw : (int(b)+1)*k.rw] {
		ra[w] |= x
	}
	for n := range k.class {
		if k.dead[n] || n == int(a) || !(k.reaches(int32(n), a) || k.reaches(int32(n), b)) {
			continue
		}
		r := k.reach[n*k.rw : (n+1)*k.rw]
		for w, x := range ra {
			r[w] |= x
		}
		r[int(a)/64] |= 1 << (uint(a) % 64)
	}
}

// linearize topologically sorts the precedence DAG into the final slot
// order, preferring earlier positions in lower-numbered threads for
// determinism: each step schedules the head of the lowest-numbered
// chain whose head is also the head of every other chain holding it.
// Per-chain cursors and a per-node count of chains still ahead of it
// make each step a scan of the chain heads. A precedence cycle
// (impossible on a correct merge) is reported as an error rather than a
// panic so the pipeline stays up on the malformed meta state.
func (k *kernel) linearize() ([]Slot, error) {
	// chain[head[t]] is thread t's first unscheduled node; waiting[n]
	// counts the chains holding live node n whose head is not n yet, so
	// n is ready when it reaches 0.
	head, waiting := make([]int32, k.nt), make([]int32, len(k.class))
	live := 0
	for n := range k.class {
		if k.dead[n] {
			continue
		}
		live++
		for _, p := range k.seq[n*k.nt : (n+1)*k.nt] {
			if p >= 0 {
				waiting[n]++
			}
		}
	}
	for t := range head {
		head[t] = int32(k.off[t])
		if k.off[t] < k.off[t+1] {
			waiting[k.chain[k.off[t]]]--
		}
	}
	slots := make([]Slot, 0, live)
	for len(slots) < live {
		pick := int32(-1)
		for t := 0; t < k.nt && pick < 0; t++ {
			if int(head[t]) < k.off[t+1] {
				if h := k.chain[head[t]]; waiting[h] == 0 {
					pick = h
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("csi: precedence cycle in linearize (merge bug; %d of %d nodes scheduled)",
				len(slots), len(k.class))
		}
		// A slot one thread executes shares that thread's guard; a
		// merged slot gets a fresh union.
		var guard *bitset.Set
		owned := false
		for t, p := range k.seq[int(pick)*k.nt : (int(pick)+1)*k.nt] {
			if p < 0 {
				continue
			}
			switch {
			case guard == nil:
				guard = k.threads[t].Guard
			case !owned:
				guard, owned = guard.Union(k.threads[t].Guard), true
			default:
				guard.UnionWith(k.threads[t].Guard)
			}
			if head[t]++; int(head[t]) < k.off[t+1] {
				waiting[k.chain[head[t]]]--
			}
		}
		slots = append(slots, Slot{Guard: guard, Instr: k.classInstr[k.class[pick]]})
	}
	return slots, nil
}
