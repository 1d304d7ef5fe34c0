package msc

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/faultinject"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// Options configures a conversion.
type Options struct {
	// Compress applies §2.5: a two-exit MIMD state always contributes
	// both successors, collapsing the 3^n successor explosion to a
	// single unconditional arc per meta state.
	Compress bool
	// MergeSubsets folds every meta state that is a subset of another
	// into that superset (the superset "has the code for both" and can
	// emulate it). §2.5's two-state result for Listing 1 requires it;
	// it defaults on when Compress is set (see DefaultOptions).
	MergeSubsets bool
	// TimeSplit enables the §2.4 heuristic: MIMD states much more
	// expensive than the cheapest state in the same meta state are split
	// so threads need not idle. SplitDelta is the noise level below
	// which imbalance is ignored; SplitPercent is the utilization
	// percentage that is already acceptable.
	TimeSplit    bool
	SplitDelta   int
	SplitPercent int
	// BarrierExact disables the §2.6 filtering in favor of exact
	// occupancy tracking: meta states keep barrier-wait members, which
	// is sound even when distinct barriers are simultaneously occupied,
	// at the price of more meta states. The default (paper) mode
	// requires the usual SPMD discipline of one barrier active at a
	// time.
	BarrierExact bool
	// MaxStates bounds the automaton size (the §1.2 S!/(S−N)! explosion
	// guard). MaxRestarts bounds time-splitting restarts; its default is
	// maxRestartsDefault whether the Options came from DefaultOptions or
	// from a zero value.
	MaxStates   int
	MaxRestarts int
	// MaxRetSubsets bounds exact enumeration of return-site subsets for
	// multiway return states; beyond it the converter falls back to the
	// compressed all-targets contribution.
	MaxRetSubsets int
	// Workers bounds the frontier-expansion worker pool: 1 forces the
	// sequential path, 0 uses GOMAXPROCS. Any value yields a
	// byte-identical automaton (see docs/PERFORMANCE.md for the
	// determinism argument); Workers only trades wall-clock for cores.
	Workers int
	// MaxMemBytes bounds the converter's approximate memory high-water
	// mark (meta-state sets live or pooled, plus the intern table), the
	// §1.2 guard in bytes rather than states. 0 means unbounded.
	// Overruns return an *mscerr.BudgetError with resource "mem_bytes".
	// The estimate is computed from commit-step state only, so it is
	// identical for any worker count.
	MaxMemBytes int64
	// Metrics, when non-nil, receives conversion counters: meta states
	// explored (interned across every restart attempt), work-list
	// high-water mark, barrier-filtered aggregates, subset-merged
	// states, and the interner/memo/parallelism counters of the
	// conversion core. All recording is nil-safe, so the hook costs
	// nothing when absent.
	Metrics *obs.Recorder
	// Trace, when non-nil, records conversion spans: one per BFS
	// frontier generation (with generation index and frontier size) and,
	// inside parallel generations, one per worker on its own display
	// lane. TraceParent parents the generation spans — typically the
	// pipeline's phase.convert span. Nil-safe like Metrics.
	Trace       *telemetry.Tracer
	TraceParent telemetry.SpanID
}

// maxRestartsDefault is the single source of truth for the §2.4 restart
// budget: DefaultOptions and fillDefaults must agree, or zero-valued
// Options would silently convert under a different budget than the
// documented default.
const maxRestartsDefault = 16384

// DefaultOptions returns the paper-faithful defaults for the given
// conversion flavor.
func DefaultOptions(compress bool) Options {
	return Options{
		Compress:      compress,
		MergeSubsets:  compress,
		SplitDelta:    4,
		SplitPercent:  75,
		MaxStates:     1 << 16,
		MaxRestarts:   maxRestartsDefault,
		MaxRetSubsets: 10,
	}
}

func (o *Options) fillDefaults() {
	if o.SplitDelta == 0 {
		o.SplitDelta = 4
	}
	if o.SplitPercent == 0 {
		o.SplitPercent = 75
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 16
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = maxRestartsDefault
	}
	if o.MaxRetSubsets == 0 {
		o.MaxRetSubsets = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// parallelFrontierMin gates the worker pool: frontiers smaller than this
// expand inline, so tiny conversions never pay goroutine overhead. A
// package variable so the determinism property test can force the
// parallel path onto small corpora.
var parallelFrontierMin = 32

// Convert builds the meta-state automaton for a MIMD state graph. The
// graph is cloned first; when time splitting runs, the automaton's G
// field holds the split copy.
func Convert(g *cfg.Graph, opt Options) (*Automaton, error) {
	return ConvertContext(context.Background(), g, opt)
}

// ConvertContext is Convert with cooperative cancellation: the commit
// loop checks ctx once per meta state, and the worker pool stops
// claiming frontier slots when ctx is done. Cancellation always drains
// the pool before returning (no goroutine outlives the call), and the
// converter's warm structures stay consistent, so a subsequent
// conversion of the same graph yields the byte-identical automaton.
func ConvertContext(ctx context.Context, g *cfg.Graph, opt Options) (*Automaton, error) {
	opt.fillDefaults()
	if opt.MergeSubsets && !opt.Compress {
		// Without the both-successors rule, a superset state's dispatch
		// does not cover the aggregates its subsumed subsets produced.
		return nil, fmt.Errorf("msc: MergeSubsets requires Compress")
	}
	c := newConverter(g.Clone(), opt)
	c.ctx = ctx

	restarts := 0
	splits := 0
	for {
		a, didSplit, err := c.convertOnce()
		if err != nil {
			return nil, err
		}
		if !didSplit {
			a.Splits = splits
			a.Restarts = restarts
			if opt.MergeSubsets {
				c.mergeSubsets(a)
			}
			c.splits, c.restarts = int64(splits), int64(restarts)
			c.flushMetrics(a)
			return a, nil
		}
		// §2.4: splitting changed the MIMD graph, so the construction of
		// the meta-state automaton is restarted to ensure consistency.
		// The restart is warm: the interner keeps its table capacity,
		// recycled meta states keep their sets, and the contribution
		// memo keeps every entry except the blocks the split mutated.
		splits++
		restarts++
		if restarts > opt.MaxRestarts {
			return nil, fmt.Errorf("msc: time splitting did not converge after %d restarts", restarts)
		}
	}
}

// MustConvert converts and panics on error; for tests and examples.
func MustConvert(g *cfg.Graph, opt Options) *Automaton {
	a, err := Convert(g, opt)
	if err != nil {
		panic("msc.MustConvert: " + err.Error())
	}
	return a
}

// converter carries the state that survives §2.4 restarts (the warm
// part: intern-table capacity, contribution memo, recycled meta states,
// expander scratch) plus the per-pass automaton under construction.
type converter struct {
	g   *cfg.Graph
	opt Options
	ctx context.Context

	barriers *bitset.Set
	memo     contribMemo
	itab     internTable
	pool     setPool
	exps     []*expander // exps[0] drives sequential generations
	msFree   []*MetaState

	// per-pass state
	a      *Automaton
	curIdx int // index of the state being committed (-1 before the loop)

	// waits/scratch are commit-step scratch for the §2.6 filter.
	waits, scratch *bitset.Set

	// batched counters, flushed to opt.Metrics once per Convert
	explored, internHits, filtered int64
	memoHits, parallelGens         int64
	worklistHigh                   int64
	mergeCandidates                int64
	splits, restarts               int64
}

func newConverter(g *cfg.Graph, opt Options) *converter {
	c := &converter{
		g:       g,
		opt:     opt,
		waits:   bitset.New(len(g.Blocks)),
		scratch: bitset.New(len(g.Blocks)),
	}
	c.exps = append(c.exps, newExpander(g, nil, opt, &c.memo, &c.pool))
	return c
}

// beginPass prepares per-pass state: the barrier set and contribution
// memo reflect the (possibly re-split) graph, the interner is emptied
// but keeps its capacity, and discarded meta states are recycled.
func (c *converter) beginPass() {
	barriers := bitset.New(len(c.g.Blocks))
	for _, b := range c.g.Blocks {
		if b != nil && b.Barrier {
			barriers.Add(b.ID)
		}
	}
	c.barriers = barriers
	c.memo.update(c.g, barriers, c.opt)
	c.itab.reset()
	for _, e := range c.exps {
		e.barriers = barriers
	}

	var states []*MetaState
	if c.a != nil {
		// The previous pass's automaton was discarded by a restart:
		// recycle its states and keep the slice capacity.
		c.msFree = append(c.msFree, c.a.States...)
		states = c.a.States[:0]
	}
	c.a = &Automaton{
		G:        c.g,
		Barriers: barriers,
		Opt:      c.opt,
		States:   states,
		index:    &c.itab,
		memo:     &c.memo,
	}
	c.curIdx = -1
}

// intern returns the meta state ID for set, creating the state if new.
// Only the single-threaded commit step calls it, which is what makes
// state numbering — and therefore the whole automaton — deterministic.
func (c *converter) intern(set *bitset.Set) (int, error) {
	h := set.Hash()
	if id, ok := c.itab.lookup(h, set, c.a.States); ok {
		c.internHits++
		return id, nil
	}
	if len(c.a.States) >= c.opt.MaxStates {
		return 0, &mscerr.BudgetError{
			Phase: "convert", Resource: "meta_states",
			Limit: int64(c.opt.MaxStates), Used: int64(len(c.a.States)) + 1,
		}
	}
	if c.opt.MaxMemBytes > 0 {
		if used := c.approxMemBytes(); used > c.opt.MaxMemBytes {
			return 0, &mscerr.BudgetError{
				Phase: "convert", Resource: "mem_bytes",
				Limit: c.opt.MaxMemBytes, Used: used,
			}
		}
	}
	ms := c.newMetaState(set)
	ms.ID = len(c.a.States)
	c.a.States = append(c.a.States, ms)
	c.itab.insert(h, ms.ID)
	c.explored++
	faultinject.OnState()
	if pending := int64(len(c.a.States) - c.curIdx - 1); pending > c.worklistHigh {
		c.worklistHigh = pending
	}
	return ms.ID, nil
}

// approxMemBytes estimates the converter's memory high-water mark: one
// full-width set (plus struct overhead) per meta state, live or pooled,
// and the intern table's slot array. It is intentionally approximate —
// a budget, not an accountant — and computed from commit-step state
// only, so sequential and parallel conversions agree exactly.
func (c *converter) approxMemBytes() int64 {
	const perState = 96 // MetaState + Set headers, amortized Trans slice
	setBytes := int64((len(c.g.Blocks)+63)/64*8 + perState)
	states := int64(len(c.a.States) + len(c.msFree))
	return states*setBytes + int64(len(c.itab.slots))*16
}

// checkCtx surfaces cooperative cancellation; called once per committed
// meta state, so cancellation latency is one state's expansion.
func (c *converter) checkCtx() error {
	if c.ctx == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("msc: convert canceled after %d meta states: %w", len(c.a.States), err)
	}
	return nil
}

// newMetaState builds a meta state holding a private copy of set,
// recycling a state (and its set's backing array) from a discarded
// restart pass when available.
func (c *converter) newMetaState(set *bitset.Set) *MetaState {
	if n := len(c.msFree); n > 0 {
		ms := c.msFree[n-1]
		c.msFree = c.msFree[:n-1]
		ms.Set.CopyFrom(set)
		ms.Trans = ms.Trans[:0]
		ms.Exit = false
		return ms
	}
	return &MetaState{Set: set.Clone()}
}

// convertOnce runs one pass of meta-state conversion. If time splitting
// decides to split a MIMD state it mutates c.g and returns didSplit=true
// (the caller restarts).
//
// The frontier is expanded in BFS generations. Because the sequential
// algorithm appends newly interned states to a FIFO worklist, it
// processes states in exactly ID order; a generation [lo, hi) therefore
// reproduces one BFS level. Expansion (the expensive cartesian-product
// enumeration) is read-only against the graph and memo, so a generation
// can fan out across workers; the commit step then walks the results in
// ID order and performs every intern, transition append, and time-split
// check exactly as the sequential loop would. The automaton that falls
// out is byte-identical for any worker count.
func (c *converter) convertOnce() (a *Automaton, didSplit bool, err error) {
	c.beginPass()
	a = c.a

	start, err := c.intern(bitset.Of(c.g.Entry))
	if err != nil {
		return nil, false, err
	}
	a.Start = start

	for gen, genStart := 0, 0; genStart < len(a.States); gen++ {
		genEnd := len(a.States)
		frontier := a.States[genStart:genEnd]
		gspan := c.opt.Trace.StartSpan("convert.generation", c.opt.TraceParent,
			telemetry.Int("gen", int64(gen)), telemetry.Int("frontier", int64(len(frontier))))

		var results []expansion
		if c.opt.Workers > 1 && len(frontier) >= parallelFrontierMin {
			results = c.expandParallel(frontier, gspan)
		}
		for i, ms := range frontier {
			if err := c.checkCtx(); err != nil {
				gspan.End()
				return nil, false, err
			}
			c.curIdx = genStart + i
			if c.opt.TimeSplit {
				if changed := timeSplitState(c.g, ms.Set, c.opt); len(changed) > 0 {
					c.memo.invalidate(changed)
					gspan.Event("restart", telemetry.Int("split_blocks", int64(len(changed))))
					gspan.End()
					return nil, true, nil
				}
			}
			// Without workers, expand here, after the split check:
			// commit retires each expansion's sets to the pool before
			// the next expansion draws from it.
			var exp expansion
			if results != nil {
				exp = results[i]
			} else {
				exp = c.exps[0].expand(ms.Set)
			}
			if err := c.commit(ms, exp); err != nil {
				gspan.End()
				return nil, false, err
			}
		}
		gspan.SetAttr(telemetry.Int("new_states", int64(len(a.States)-genEnd)))
		gspan.End()
		genStart = genEnd
	}
	return a, false, nil
}

// expandParallel fans one BFS generation out across the worker pool.
// Workers claim frontier slots through an atomic cursor, each with its
// own scratch expander; nothing is interned here, so no ordering is
// imposed and no locks are taken on the hot path.
//
// Two containment guarantees: on context cancellation workers stop
// claiming new slots and the unconditional Wait drains them, so a
// canceled conversion never leaks a goroutine; and a worker panic is
// captured and re-raised on the calling goroutine after the drain, so
// the pipeline's phase runner can contain it (a goroutine panic would
// otherwise kill the process no matter what the caller deferred).
func (c *converter) expandParallel(frontier []*MetaState, gspan *telemetry.Span) []expansion {
	workers := min(c.opt.Workers, len(frontier))
	for len(c.exps) < workers {
		c.exps = append(c.exps, newExpander(c.g, c.barriers, c.opt, &c.memo, &c.pool))
	}
	results := make([]expansion, len(frontier))
	var next atomic.Int64
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, e *expander) {
			defer wg.Done()
			// Worker spans get their own display lanes so the Chrome
			// export shows the fan-out side by side; Span is
			// concurrency-safe, so tracing the pool needs no extra
			// synchronization. Nil gspan (tracing off) makes every span
			// call a no-op.
			wspan := gspan.StartChild("convert.worker", telemetry.Int("worker", int64(w)))
			if wspan != nil {
				wspan.Lane = workerLaneBase + w
			}
			claimed := int64(0)
			defer func() {
				wspan.SetAttr(telemetry.Int("claimed", claimed))
				wspan.End()
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &workerPanic{val: r})
				}
			}()
			for {
				if c.ctx != nil && c.ctx.Err() != nil {
					return // canceled: stop claiming; commit loop reports
				}
				i := int(next.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				results[i] = e.expand(frontier[i].Set)
				claimed++
			}
		}(w, c.exps[w])
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
	c.parallelGens++
	return results
}

// workerPanic carries the first panic value out of the worker pool.
type workerPanic struct{ val any }

// workerLaneBase offsets conversion-worker span lanes so they render on
// their own tracks in the Chrome trace viewer, below the main lane.
const workerLaneBase = 100

// commit applies one meta state's expansion: §2.6 barrier filtering,
// interning of targets (and of explicit release states), transition
// recording, and canonical ordering. It mirrors the sequential loop body
// statement for statement; see convertOnce for why that yields
// byte-identical automata under parallel expansion.
func (c *converter) commit(ms *MetaState, exp expansion) error {
	if exp.overApprox {
		c.a.OverApprox = true
	}
	// One arc per aggregate, barring §2.6 release states.
	ms.Trans = slices.Grow(ms.Trans, len(exp.raw))
	for _, raw := range exp.raw {
		if raw.Empty() {
			ms.Exit = true
			continue
		}
		target := raw
		if !c.opt.BarrierExact {
			c.waits.IntersectOf(raw, c.barriers)
			if !c.waits.Equal(raw) && !c.waits.Empty() {
				// §2.6 filtering drops the barrier-wait members from this
				// mixed aggregate — those PEs wait while the rest proceed.
				c.filtered++
				// A mixed aggregate means the barrier may also release
				// here: if at run time every still-live PE lands on the
				// barrier, the all-barrier meta state is entered
				// (§3.2.4). Base enumeration produces that candidate on
				// its own; the compressed single-union candidate hides
				// it, so the release state is interned explicitly.
				rel, err := c.intern(c.waits)
				if err != nil {
					return err
				}
				ms.Trans = append(ms.Trans, rel)
				c.scratch.MinusOf(raw, c.waits)
				target = c.scratch
			}
		}
		to, err := c.intern(target)
		if err != nil {
			return err
		}
		ms.Trans = append(ms.Trans, to)
	}
	// Interning copies what it keeps, so the expansion's sets retire to
	// the pool together.
	c.pool.put(exp.raw...)
	ms.Trans = c.a.sortSuccs(ms.Trans)
	return nil
}

// flushMetrics publishes the batched counters. Counters accumulate
// across every restart pass, matching the semantics the per-intern
// recording had before batching.
func (c *converter) flushMetrics(a *Automaton) {
	m := c.opt.Metrics
	var memoHits int64 = 0
	for _, e := range c.exps {
		memoHits += e.memoHits
	}
	m.Add(obs.CounterMetaExplored, c.explored)
	m.Max(obs.CounterWorklistHigh, c.worklistHigh)
	m.Add(obs.CounterMetaFiltered, c.filtered)
	m.Add(obs.CounterInternHits, c.internHits)
	m.Add(obs.CounterContribMemoHits, memoHits)
	m.Add(obs.CounterParallelGens, c.parallelGens)
	m.Set(obs.CounterConvertWorkers, int64(c.opt.Workers))
	m.Add(obs.CounterMergeScanned, c.mergeCandidates)
	m.Add(obs.CounterSplits, c.splits)
	m.Add(obs.CounterRestarts, c.restarts)
	m.Set(obs.CounterMetaStates, int64(len(a.States)))
	m.Set(obs.CounterMIMDStates, int64(a.G.NumBlocks()))
}

// mergeSubsets folds meta states that are strict subsets of other meta
// states into the (smallest) superset, which can always emulate them
// (§2.5). Transitions and the start state are redirected; unreachable
// states are pruned and IDs are compacted.
//
// Candidate supersets are bucketed by popcount: a strict superset of s
// necessarily has Len() strictly greater than s's (interning guarantees
// distinct states have distinct sets), so the scan walks the buckets in
// ascending width and stops at the first hit — replacing the old O(n²)
// all-pairs scan while choosing the identical (smallest-Len, then
// smallest-ID) superset.
func (c *converter) mergeSubsets(a *Automaton) {
	maxLen := 0
	lens := make([]int, len(a.States))
	for i, s := range a.States {
		lens[i] = s.Set.Len()
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	buckets := make([][]*MetaState, maxLen+1)
	for i, s := range a.States {
		buckets[lens[i]] = append(buckets[lens[i]], s) // ID-ascending within a bucket
	}

	// For each state find the smallest strict superset, if any.
	redirect := make([]int, len(a.States))
	for i := range redirect {
		redirect[i] = i
	}
	merged := int64(0)
	for _, s := range a.States {
	search:
		for l := lens[s.ID] + 1; l <= maxLen; l++ {
			for _, t := range buckets[l] {
				c.mergeCandidates++
				if s.Set.Subset(t.Set) {
					redirect[s.ID] = t.ID
					merged++
					break search
				}
			}
		}
	}
	c.opt.Metrics.Add(obs.CounterMetaMerged, merged)

	// Chase chains (subset of a subset of ...).
	resolve := func(id int) int {
		for redirect[id] != id {
			id = redirect[id]
		}
		return id
	}

	a.Start = resolve(a.Start)
	for _, s := range a.States {
		for i := range s.Trans {
			s.Trans[i] = resolve(s.Trans[i])
		}
	}

	// Keep only states reachable from the start.
	seen := make([]bool, len(a.States))
	stack := []int{a.Start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		for _, to := range a.States[id].Trans {
			if !seen[to] {
				stack = append(stack, to)
			}
		}
	}

	remap := make([]int, len(a.States))
	var live []*MetaState
	for i, s := range a.States {
		if seen[i] {
			remap[i] = len(live)
			live = append(live, s)
		}
	}
	c.itab.reset()
	for _, s := range live {
		s.ID = remap[s.ID]
		for i := range s.Trans {
			s.Trans[i] = remap[s.Trans[i]]
		}
		c.itab.insert(s.Set.Hash(), s.ID)
	}
	a.States = live
	a.Start = remap[a.Start]
	for _, s := range a.States {
		s.Trans = a.sortSuccs(s.Trans)
	}
}
