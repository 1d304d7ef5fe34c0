package msc

import (
	"sync"

	"msc/internal/bitset"
	"msc/internal/cfg"
)

// blockContrib is the memoized §2.3 contribution of one MIMD state: the
// successor sets the state can contribute to any meta state containing
// it. For every terminator except the barrier-exact wait rule the
// contribution is context-free, so it is computed once per block per
// conversion pass instead of once per (block, meta state) pair — across
// §2.4 restarts only split blocks are recomputed (warm restart).
type blockContrib struct {
	valid bool
	// sets is the context-free contribution list.
	sets []*bitset.Set
	// self, when non-nil, is the [{id}] wait-in-place contribution a
	// barrier block yields in BarrierExact mode while its meta state
	// still holds non-barrier members.
	self []*bitset.Set
	// overApprox marks a RetBr wider than MaxRetSubsets that fell back
	// to the all-targets rule.
	overApprox bool
}

// contribMemo holds the per-block contribution memo for one graph.
type contribMemo struct {
	blocks []blockContrib
}

// invalidate drops the memo entries for the given block IDs (blocks
// mutated by §2.4 time splitting).
func (m *contribMemo) invalidate(ids []int) {
	for _, id := range ids {
		if id < len(m.blocks) {
			m.blocks[id] = blockContrib{}
		}
	}
}

// update (re)computes every missing entry. It must be called before
// expansion starts: precomputing eagerly keeps the memo strictly
// read-only while parallel workers expand the frontier.
func (m *contribMemo) update(g *cfg.Graph, barriers *bitset.Set, opt Options) {
	if len(m.blocks) < len(g.Blocks) {
		m.blocks = append(m.blocks, make([]blockContrib, len(g.Blocks)-len(m.blocks))...)
	}
	for id := range m.blocks {
		bc := &m.blocks[id]
		if bc.valid {
			continue
		}
		b := g.Block(id)
		if b == nil {
			bc.valid = true
			continue
		}
		bc.sets, bc.overApprox = computeContrib(g, b, opt)
		if opt.BarrierExact && b.Barrier {
			bc.self = []*bitset.Set{bitset.Of(id)}
		}
		bc.valid = true
	}
}

// computeContrib enumerates the §2.3 contribution sets of one block.
// Sets are preallocated to the graph's block range so downstream unions
// never trigger incremental growth.
func computeContrib(g *cfg.Graph, b *cfg.Block, opt Options) ([]*bitset.Set, bool) {
	of := func(ids ...int) *bitset.Set {
		s := bitset.New(len(g.Blocks))
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	switch b.Term {
	case cfg.End, cfg.Halt:
		// No exit arcs: the process ends here and contributes nothing.
		return []*bitset.Set{bitset.New(0)}, false
	case cfg.Goto:
		return []*bitset.Set{of(b.Next)}, false
	case cfg.Branch:
		if b.Next == b.FNext {
			return []*bitset.Set{of(b.Next)}, false
		}
		if opt.Compress {
			// §2.5: both successors are always assumed taken.
			return []*bitset.Set{of(b.Next, b.FNext)}, false
		}
		// §2.3: TRUE, FALSE, or (multiple processes) both.
		return []*bitset.Set{of(b.Next), of(b.FNext), of(b.Next, b.FNext)}, false
	case cfg.RetBr:
		if opt.Compress {
			return []*bitset.Set{of(b.RetTargets...)}, false
		}
		if len(b.RetTargets) > opt.MaxRetSubsets {
			// Exact enumeration would need 2^k-1 subsets; fall back to
			// the all-targets rule and mark the automaton so dispatch
			// accepts covering supersets.
			return []*bitset.Set{of(b.RetTargets...)}, true
		}
		return nonEmptySubsets(g, b.RetTargets), false
	case cfg.Spawn:
		// §3.2.5: a spawn looks like a conditional jump whose both paths
		// must be taken (the compressed rule), one by the original
		// processes and one by the created ones.
		return []*bitset.Set{of(b.Next, b.SpawnNext)}, false
	}
	return []*bitset.Set{bitset.New(0)}, false
}

// nonEmptySubsets enumerates every non-empty subset of ids, each
// preallocated to the graph's block range.
func nonEmptySubsets(g *cfg.Graph, ids []int) []*bitset.Set {
	n := len(ids)
	out := make([]*bitset.Set, 0, (1<<n)-1)
	for mask := 1; mask < 1<<n; mask++ {
		s := bitset.New(len(g.Blocks))
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s.Add(ids[i])
			}
		}
		out = append(out, s)
	}
	return out
}

// setPool recycles successor-aggregate sets between the single-threaded
// commit step (which retires consumed sets) and the expansion workers
// (which allocate them). Workers refill in batches to keep the mutex off
// the per-set path.
type setPool struct {
	mu   sync.Mutex
	free []*bitset.Set
}

const poolBatch = 64

// fill moves up to poolBatch spare sets into dst.
func (p *setPool) fill(dst []*bitset.Set) []*bitset.Set {
	p.mu.Lock()
	n := min(poolBatch, len(p.free))
	dst = append(dst, p.free[len(p.free)-n:]...)
	p.free = p.free[:len(p.free)-n]
	p.mu.Unlock()
	return dst
}

// put returns retired sets to the pool.
func (p *setPool) put(ss ...*bitset.Set) {
	p.mu.Lock()
	p.free = append(p.free, ss...)
	p.mu.Unlock()
}

// expansion is one meta state's expansion result: its distinct raw
// successor aggregates in canonical (Key) order, before §2.6 barrier
// filtering. An empty aggregate means every member can terminate.
type expansion struct {
	raw        []*bitset.Set
	overApprox bool
}

// expander computes expansions with reusable scratch. Each worker owns
// one; it reads the graph, the barrier set, and the contribution memo,
// all of which are frozen during a generation, so expanders never
// synchronize with each other.
type expander struct {
	g        *cfg.Graph
	barriers *bitset.Set
	opt      Options
	memo     *contribMemo
	pool     *setPool // may be nil: plain allocation (standalone queries)

	free     []*bitset.Set
	tab      setTable
	cur, nxt []*bitset.Set

	// memoHits counts contribution lookups served by the memo; flushed
	// into the converter's counters after each pass.
	memoHits int64
}

func newExpander(g *cfg.Graph, barriers *bitset.Set, opt Options, memo *contribMemo, pool *setPool) *expander {
	return &expander{g: g, barriers: barriers, opt: opt, memo: memo, pool: pool}
}

func (e *expander) get() *bitset.Set {
	if len(e.free) == 0 && e.pool != nil {
		e.free = e.pool.fill(e.free)
	}
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	return bitset.New(len(e.g.Blocks))
}

func (e *expander) put(s *bitset.Set) {
	e.free = append(e.free, s)
}

// contribFor returns block id's contribution within the given meta
// state, and whether it over-approximates.
func (e *expander) contribFor(id int, within *bitset.Set) ([]*bitset.Set, bool) {
	bc := &e.memo.blocks[id]
	if bc.self != nil && !within.Subset(e.barriers) {
		// Exact barrier mode: a barrier state in a mixed meta state
		// waits in place; only when every member is a barrier does it
		// proceed.
		return bc.self, false
	}
	e.memoHits++
	return bc.sets, bc.overApprox
}

// expand enumerates every distinct aggregate successor set of a meta
// state (see product). The result is sorted in canonical order, so it is
// deterministic regardless of which worker ran the expansion; ownership
// of the result sets passes to the caller (commit retires them into the
// pool).
func (e *expander) expand(set *bitset.Set) expansion {
	cur, overApprox := e.product(set)
	bitset.Sort(cur)
	raw := make([]*bitset.Set, len(cur))
	copy(raw, cur)
	return expansion{raw: raw, overApprox: overApprox}
}

// product enumerates every distinct aggregate successor set of a meta
// state: the §2.3 reach recursion expressed as a deduplicated cartesian
// product of each member state's possible contributions. The sets come
// in enumeration order, in a slice the expander reuses on its next call;
// the caller owns the sets. It also reports whether a contribution
// over-approximated.
func (e *expander) product(set *bitset.Set) ([]*bitset.Set, bool) {
	cur, nxt := e.cur[:0], e.nxt[:0]
	s0 := e.get()
	s0.Reset()
	cur = append(cur, s0)
	overApprox := false
	set.ForEach(func(id int) {
		choices, oa := e.contribFor(id, set)
		overApprox = overApprox || oa
		e.tab.reset(len(cur) * len(choices))
		nxt = nxt[:0]
		for _, p := range cur {
			for _, c := range choices {
				u := e.get()
				u.UnionOf(p, c)
				if _, dup := e.tab.lookupOrInsert(u.Hash(), u, nxt, len(nxt)); dup {
					e.put(u)
					continue
				}
				nxt = append(nxt, u)
			}
		}
		for _, p := range cur {
			e.put(p)
		}
		cur, nxt = nxt, cur
	})
	e.cur, e.nxt = cur[:0], nxt[:0]
	return cur, overApprox
}
