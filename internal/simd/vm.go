package simd

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// Reserved pc values: a done PE finished its process (End); an idle PE
// is in the free pool (§3.2.5: "a pc value indicating that they are not
// in any meta state"). Neither contributes an apc bit.
const (
	PCDone = -1
	PCIdle = -2
)

// ctxCheckEvery is how many meta-state executions pass between
// cooperative cancellation checks — frequent enough that a canceled run
// stops within microseconds, rare enough to stay off the hot path.
const ctxCheckEvery = 1024

// chunkPEs is the number of PEs per execution chunk: the unit of work a
// pool worker claims. A multiple of 64 so chunk boundaries fall on mask
// words and no word is shared between chunks. Package-level so tests
// can shrink it to exercise multi-chunk execution at small widths.
var chunkPEs = 4096

// SetChunkPEsForTest overrides the PEs-per-chunk granularity and
// returns a restore func. n must be a positive multiple of 64. Tests
// use tiny chunks so widths like 1024 still stripe across many chunks
// (and workers); results must be byte-identical at every setting.
func SetChunkPEsForTest(n int) (restore func()) {
	if n <= 0 || n%64 != 0 {
		panic(fmt.Sprintf("simd: chunk size %d is not a positive multiple of 64", n))
	}
	old := chunkPEs
	chunkPEs = n
	return func() { chunkPEs = old }
}

// Config controls a SIMD run.
type Config struct {
	// N is the machine width. InitialActive PEs begin at the program
	// entry (zero means all).
	N             int
	InitialActive int
	// Workers is the number of goroutines that execute PE chunks: 0
	// means GOMAXPROCS, 1 forces the sequential path. The chunk pool
	// claims chunks from an atomic cursor and commits cross-chunk
	// effects in chunk-ID order, so the Result is byte-identical at any
	// worker count; only wall time changes.
	Workers int
	// MaxMeta bounds meta-state executions (the non-termination guard);
	// defaults to mscerr.DefaultMaxSteps. Exceeding it returns an
	// *mscerr.StepLimitError.
	MaxMeta int
	// Ctx, when non-nil, is checked every ctxCheckEvery meta states for
	// cooperative cancellation; a canceled run returns ctx's error
	// (matchable with errors.Is) with no state leaked.
	Ctx context.Context
	// Sink, when non-nil, receives the typed trace event stream
	// (obs.EventTimeline at meta-state entry, obs.EventMeta/EventExit
	// after dispatch); an obs.TextSink renders it as the text trace,
	// the per-PE timeline or both. EventTimeline rows are O(N), so they
	// are built only for a sink that reads them (obs.ReadsRows), and
	// such a sink is refused above ObsWidthCap with a *WidthLimitError.
	Sink obs.Sink
	// Profiler, when non-nil, receives sampled cycle attribution: body
	// slot cycles fold to (meta state, Slot.Block, Slot.Pos), dispatch
	// cycles to the meta state's dispatch frame. Only the coordinator
	// goroutine calls the profiler — chunk workers never do — so the
	// profiler's single-consumer contract holds at any worker count;
	// when nil the hot path pays one pointer compare per slot.
	Profiler *telemetry.Profiler
}

// Result reports a SIMD execution.
type Result struct {
	Mem [][]ir.Word
	// Time is the total control-unit cycle count: body slots plus
	// transition dispatch. In SIMD every PE pays every cycle.
	Time int64
	// BodyCycles and DispatchCycles decompose Time.
	BodyCycles     int64
	DispatchCycles int64
	// EnabledCycles sums slot cost × enabled PE count: the truly useful
	// PE-cycles. Utilization() relates it to N × Time.
	EnabledCycles int64
	// LiveIdleCycles sums slot cost × (live − enabled) PE count: cycles
	// live PEs spend disabled, "waiting for the transition to the next
	// meta state" (§2.4).
	LiveIdleCycles int64
	// MetaExecs counts meta states executed; SlotExecs counts slots.
	MetaExecs int64
	SlotExecs int64
	// MetaStats accumulates per-meta-state visit and cycle counts,
	// indexed by meta state ID. Cycles attributes every control-unit
	// cycle (body and dispatch) to the state that spent it, so the sum
	// over all states equals Time exactly — the invariant the `msc
	// profile` hot-spot table relies on.
	MetaStats []MetaStat
	// PEHist is the PE-utilization histogram: exact below PEHistExactMax
	// (PEHist[k] sums the body cycles spent in slots with exactly k PEs
	// enabled, length N+1) and log₂-bucketed above it (bucket 0 is zero
	// enabled, bucket k covers [2^(k-1), 2^k); see PEHistIndex). In both
	// modes the cycle mass invariant sum(PEHist) == BodyCycles holds.
	PEHist []int64
	// Done flags PEs that reached End.
	Done []bool
}

// MetaStat is the per-meta-state accumulation for hot-spot reporting.
type MetaStat struct {
	// Visits counts executions of this meta state.
	Visits int64
	// Cycles is every cycle attributed here: body slots plus the
	// transition dispatch that ended each visit.
	Cycles int64
	// BodyCycles is the slot-only part of Cycles.
	BodyCycles int64
	// EnabledPECycles sums slot cost × enabled PEs; LivePECycles sums
	// slot cost × live PEs. Divided by BodyCycles they give the mean
	// enabled and live PE counts over this state's body.
	EnabledPECycles int64
	LivePECycles    int64
}

// MeanEnabled returns the mean number of enabled PEs over the state's
// body cycles.
func (s *MetaStat) MeanEnabled() float64 {
	if s.BodyCycles == 0 {
		return 0
	}
	return float64(s.EnabledPECycles) / float64(s.BodyCycles)
}

// MeanLive returns the mean number of live PEs over the state's body
// cycles.
func (s *MetaStat) MeanLive() float64 {
	if s.BodyCycles == 0 {
		return 0
	}
	return float64(s.LivePECycles) / float64(s.BodyCycles)
}

// Utilization is the fraction of total PE-cycles (including dispatch)
// spent enabled on body slots.
func (r *Result) Utilization(n int) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.EnabledCycles) / (float64(r.Time) * float64(n))
}

// BodyUtilization is the fraction of body PE-cycles spent enabled: the
// §2.4 idle-time metric (a 5-cycle state merged with a 100-cycle state
// idles the cheap thread ~95% of the body).
func (r *Result) BodyUtilization(n int) float64 {
	if r.BodyCycles == 0 {
		return 0
	}
	return float64(r.EnabledCycles) / (float64(r.BodyCycles) * float64(n))
}

// WaitFraction is the §2.4 waiting metric: of the PE-cycles spent by
// live processors inside meta-state bodies, the fraction spent disabled
// — waiting for other threads' code to pass so the transition can
// happen. The paper's 5-vs-100-cycle example wastes up to 95% of the
// cheap thread's cycles this way.
func (r *Result) WaitFraction() float64 {
	total := r.EnabledCycles + r.LiveIdleCycles
	if total == 0 {
		return 0
	}
	return float64(r.LiveIdleCycles) / float64(total)
}

// prepare validates a Config, applies defaults, and resolves the entry
// MIMD state. rows reports whether the sink reads the O(N)
// EventTimeline rows, so the engine builds them only then. Shared by
// Run and ReferenceRun so both engines accept and reject exactly the
// same configurations with the same error text.
func prepare(p *Program, conf Config) (_ Config, entry int, rows bool, _ error) {
	if conf.N < 1 {
		return conf, 0, false, fmt.Errorf("simd: N must be >= 1, got %d", conf.N)
	}
	if conf.InitialActive == 0 {
		conf.InitialActive = conf.N
	}
	if conf.InitialActive < 1 || conf.InitialActive > conf.N {
		return conf, 0, false, fmt.Errorf("simd: InitialActive %d out of range [1,%d]", conf.InitialActive, conf.N)
	}
	if conf.Workers < 0 {
		return conf, 0, false, fmt.Errorf("simd: Workers must be >= 0, got %d", conf.Workers)
	}
	if conf.MaxMeta == 0 {
		conf.MaxMeta = mscerr.DefaultMaxSteps
	}
	start := p.Meta[p.Start]
	if start.Set.Len() != 1 {
		return conf, 0, false, fmt.Errorf("simd: start meta state %s is not a single MIMD state", start.Set)
	}
	rows = obs.ReadsRows(conf.Sink)
	if rows && conf.N > ObsWidthCap {
		return conf, 0, false, &WidthLimitError{N: conf.N, Cap: ObsWidthCap}
	}
	return conf, start.Set.Min(), rows, nil
}

// vm is the struct-of-arrays SIMD machine. PE state lives in flat
// parallel arrays (pcs/npcs, one memory slab indexed pe*words+addr) and
// per-MIMD-state occupancy masks with 64 PEs per word, so per-slot
// enablement is a word OR of the guard's occupied member states and the
// enable census is a running occupancy count — no per-PE scan. PEs are
// cut into fixed-size chunks (chunkPEs wide, word-aligned) that a
// worker pool claims from an atomic cursor. A chunk owns its PEs'
// stacks, stored depth-major (see chunk), and each pass runs a whole
// run of chunk-local slots on a chunk before moving on, so a chunk's PE
// state stays cache-resident across the run (execBody).
// Cross-chunk effects (StMono broadcast value, StRemote router writes,
// occupancy-count deltas) are buffered per chunk and committed in
// chunk-ID order by the coordinator, so the Result is byte-identical at
// any worker count.
type vm struct {
	p    *Program
	conf Config
	n    int // machine width
	wpp  int // memory words per PE
	nw   int // mask words (ceil(n/64))
	cw   int // words per chunk (chunkPEs/64)

	mem  []ir.Word // slab: PE i's memory is mem[i*wpp : (i+1)*wpp]
	pcs  []int32   // committed pc per PE
	npcs []int32   // next pc per PE; equals pcs outside a body

	// Return-stack depth per PE; the entries live in the PE's chunk
	// (see chunk). Evaluation-stack depths are static (see layout).
	rlens []int32

	occ    []bitset.Mask // per MIMD state: which PEs' committed pc is there
	occCnt []int64       // per MIMD state: popcount of occ, maintained incrementally
	idle   bitset.Mask   // committed pc == PCIdle
	doneM  bitset.Mask   // committed pc == PCDone
	dirty  bitset.Mask   // npc written this body; commit visits only these
	enab   bitset.Mask   // scratch for multi-member guard ORs
	live   int64         // number of PEs with committed pc >= 0

	freeHint int // first mask word that may hold a free (idle, not dirty) PE

	lay *layout // guard members and evaluation-stack depths per slot
	ens []int64 // per slot of the running body: enabled PE count

	chunks []chunk
	wss    []*wscratch
	pool   *chunkPool

	res  *Result
	prof *telemetry.Profiler
}

// retRows is how many return-stack entries per PE a chunk holds
// depth-major; it covers every call depth in the corpus.
const retRows = 4

// chunk is the state one PE chunk owns. During a pass only the worker
// running the chunk touches it.
type chunk struct {
	p0, wd int // the chunk's PEs are [p0, p0+wd)

	// Evaluation stacks, depth-major: PE pe's entry at depth d is
	// stk[d*wd+pe-p0] (see row), one row per level of the program's
	// deepest stack. Every PE a slot enables from one MIMD state reaches
	// it at the depth the layout fixed for that state, so the slot
	// touches fixed rows.
	stk []ir.Word

	// Return stacks: the first retRows entries of each PE depth-major
	// in ret like stk, the rest in the PE's own retDeep[pe-p0]. Return
	// depth is recursion depth, which nothing bounds, so one deep PE
	// must not grow every PE's rows. ret is allocated only when the
	// program pushes return sites, and retDeep on the chunk's first
	// overflow.
	ret     []int32
	retDeep [][]int32

	// err is the chunk's failure in the current pass and slot the body
	// slot it failed at (see forChunks).
	err  error
	slot int

	// Effects that must apply in global PE order: whether StMono popped
	// any PE here and the last value popped, and StRemote's buffered
	// router writes.
	monoAny bool
	monoVal ir.Word
	rem     []remWrite
}

// remWrite is one buffered StRemote store: the writing PE, slab index
// and value.
type remWrite struct {
	pe, idx int
	val     ir.Word
}

func newVM(p *Program, conf Config, entry int, lay *layout) *vm {
	n := conf.N
	m := &vm{
		p:    p,
		conf: conf,
		n:    n,
		wpp:  p.Words,
		nw:   bitset.MaskWords(n),
		cw:   chunkPEs / 64,
		lay:  lay,

		mem:   make([]ir.Word, n*p.Words),
		pcs:   make([]int32, n),
		npcs:  make([]int32, n),
		rlens: make([]int32, n),

		occ:    make([]bitset.Mask, p.NStates),
		occCnt: make([]int64, p.NStates),
		idle:   bitset.NewMask(n),
		doneM:  bitset.NewMask(n),
		dirty:  bitset.NewMask(n),
		enab:   bitset.NewMask(n),

		res: &Result{
			Done:      make([]bool, n),
			MetaStats: make([]MetaStat, len(p.Meta)),
			PEHist:    make([]int64, PEHistLen(n)),
		},
	}
	for s := range m.occ {
		m.occ[s] = bitset.NewMask(n)
	}
	ia := conf.InitialActive
	m.occ[entry].FillFirst(ia)
	m.occCnt[entry] = int64(ia)
	m.live = int64(ia)
	m.idle.FillFirst(n)
	for w := range m.idle {
		m.idle[w] &^= m.occ[entry][w]
	}
	m.freeHint = ia / 64
	for i := 0; i < n; i++ {
		if i < ia {
			m.pcs[i] = int32(entry)
		} else {
			m.pcs[i] = PCIdle
		}
	}
	copy(m.npcs, m.pcs)

	maxSlots := 0
	for _, mc := range p.Meta {
		maxSlots = max(maxSlots, len(mc.Slots))
	}
	m.ens = make([]int64, maxSlots)

	m.chunks = make([]chunk, max((m.nw+m.cw-1)/m.cw, 1))
	for c := range m.chunks {
		ch := &m.chunks[c]
		ch.p0 = c * chunkPEs
		ch.wd = min(n-ch.p0, chunkPEs)
		ch.stk = make([]ir.Word, lay.rows*ch.wd)
		if lay.ret {
			ch.ret = make([]int32, retRows*ch.wd)
		}
	}

	workers := conf.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(m.chunks) {
		workers = len(m.chunks)
	}
	m.wss = make([]*wscratch, workers)
	for i := range m.wss {
		m.wss[i] = newWScratch(p.NStates)
	}
	if workers > 1 {
		m.pool = newChunkPool(m, workers)
	}

	m.prof = conf.Profiler
	return m
}

// close releases the worker pool (no-op on the sequential path).
func (m *vm) close() {
	if m.pool != nil {
		m.pool.stop()
	}
}

// chunkWords returns the mask-word range [w0, w1) of chunk c.
func (m *vm) chunkWords(c int) (int, int) {
	w0 := c * m.cw
	w1 := w0 + m.cw
	if w1 > m.nw {
		w1 = m.nw
	}
	return w0, w1
}

// Run executes a compiled meta-state program on the SIMD machine. A
// program that breaks a rule the machine relies on (see Validate) is
// refused with a *ProgramError before anything runs.
func Run(p *Program, conf Config) (*Result, error) {
	conf, entry, rows, err := prepare(p, conf)
	if err != nil {
		return nil, err
	}
	lay, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	m := newVM(p, conf, entry, lay)
	defer m.close()

	cur := p.Start
	for step := 0; ; step++ {
		if step >= conf.MaxMeta {
			return nil, &mscerr.StepLimitError{Engine: "simd", Limit: int64(conf.MaxMeta), Steps: int64(step)}
		}
		if conf.Ctx != nil && step%ctxCheckEvery == 0 {
			if err := conf.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("simd: run canceled at step %d: %w", step, err)
			}
		}
		mc := p.Meta[cur]
		m.res.MetaExecs++
		m.res.MetaStats[cur].Visits++
		if rows {
			if err := conf.Sink.Emit(m.timelineEvent(int64(step), cur)); err != nil {
				return nil, fmt.Errorf("simd: trace sink: %w", err)
			}
		}
		if err := m.execBody(mc); err != nil {
			return nil, fmt.Errorf("simd: ms%d: %w", cur, err)
		}
		next, done, err := m.dispatch(mc)
		if err != nil {
			return nil, fmt.Errorf("simd: ms%d: %w", cur, err)
		}
		if conf.Sink != nil {
			e := &obs.Event{
				Step: int64(step), Cycle: m.res.Time,
				Meta: cur, Set: mc.Set.String(),
			}
			if done {
				e.Kind = obs.EventExit
			} else {
				e.Kind = obs.EventMeta
				e.APC = m.apc().String()
				e.Live = int(m.live)
				e.Next = next
			}
			if err := conf.Sink.Emit(e); err != nil {
				return nil, fmt.Errorf("simd: trace sink: %w", err)
			}
		}
		if done {
			break
		}
		cur = next
	}

	for w := 0; w < m.nw; w++ {
		dw := m.doneM[w]
		for dw != 0 {
			b := bits.TrailingZeros64(dw)
			dw &= dw - 1
			m.res.Done[w<<6+b] = true
		}
	}
	mem := make([][]ir.Word, m.n)
	for i := range mem {
		mem[i] = m.mem[i*m.wpp : (i+1)*m.wpp : (i+1)*m.wpp]
	}
	m.res.Mem = mem
	return m.res, nil
}

// timelineEvent captures one per-PE occupancy row as a typed event.
// Only built when the sink reads rows (it is O(N)); the width cap in
// prepare keeps that affordable.
func (m *vm) timelineEvent(step int64, ms int) *obs.Event {
	pes := make([]int, m.n)
	for i := range pes {
		switch pc := int(m.pcs[i]); {
		case pc == PCDone:
			pes[i] = obs.PEDone
		case pc == PCIdle:
			pes[i] = obs.PEIdle
		case m.p.Barriers.Has(pc):
			pes[i] = obs.PEWait
		default:
			pes[i] = pc
		}
	}
	return &obs.Event{Kind: obs.EventTimeline, Step: step, Cycle: m.res.Time, Meta: ms, PEs: pes}
}

// apc computes the aggregate program counter: the global-or of one bit
// per live pc value (§3.2.3). With occupancy counts maintained at
// commit this is O(NStates), independent of machine width.
func (m *vm) apc() *bitset.Set {
	agg := bitset.New(m.p.NStates)
	for s := 0; s < m.p.NStates; s++ {
		if m.occCnt[s] > 0 {
			agg.Add(s)
		}
	}
	return agg
}

// dispatch selects the next meta state from the aggregate (§3.2).
func (m *vm) dispatch(mc *MetaCode) (next int, done bool, err error) {
	tr := &mc.Trans
	cost := int64(tr.Cost())
	m.res.Time += cost
	m.res.DispatchCycles += cost
	m.res.MetaStats[mc.ID].Cycles += cost
	if m.prof != nil {
		m.prof.Add(mc.ID, telemetry.NoBlock, ir.Pos{}, cost)
	}
	return dispatchAgg(m.p, tr, m.apc())
}

// dispatchAgg resolves a transition against an aggregate pc. Shared by
// both engines so dispatch semantics (and error text) cannot drift.
func dispatchAgg(p *Program, tr *Trans, agg *bitset.Set) (next int, done bool, err error) {
	if agg.Empty() {
		if tr.Kind == TransGoto && !tr.ExitCheck {
			return 0, false, fmt.Errorf("aggregate went empty on an unconditional arc without exit check (compiler bug)")
		}
		return 0, true, nil
	}

	// §3.2.4: if every live PE is waiting at a barrier, the barrier
	// releases — the transition "proceeds normally" by looking up the
	// aggregate itself, independent of this state's own arcs (waiters
	// may have been stranded by threads that ended elsewhere).
	if !p.Barriers.Empty() && agg.Subset(p.Barriers) {
		return releaseLookup(p, agg)
	}

	switch tr.Kind {
	case TransNone:
		return 0, false, fmt.Errorf("terminal meta state but %d PEs still live (apc %s)", agg.Len(), agg)
	case TransGoto:
		return tr.Entries[0].To, false, nil
	}

	// §3.2.4: proceed normally if the aggregate is all barrier states;
	// otherwise subtract them — those PEs wait.
	key := agg
	if !agg.Subset(p.Barriers) {
		key = agg.Minus(p.Barriers)
	}

	if tr.Hash != nil {
		w, ok := key.Word()
		if !ok {
			return 0, false, fmt.Errorf("hashed dispatch with > 64 MIMD states")
		}
		idx := tr.Hash.Index(w)
		if idx >= uint64(len(tr.Hash.Table)) || tr.Hash.Table[idx] < 0 {
			return 0, false, fmt.Errorf("hash dispatch miss for aggregate %s", key)
		}
		return tr.Hash.Table[idx], false, nil
	}

	best := -1
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if e.Key.Equal(key) {
			return e.To, false, nil
		}
		if p.SupersetDispatch && key.Subset(e.Key) {
			if best < 0 || e.Key.Len() < tr.Entries[best].Key.Len() {
				best = i
			}
		}
	}
	if best >= 0 {
		return tr.Entries[best].To, false, nil
	}
	return 0, false, fmt.Errorf("no dispatch entry for aggregate %s (key %s)", agg, key)
}

// releaseLookup finds the meta state for an all-barrier aggregate by
// global search: exact set match first, then — when the automaton
// over-approximates — the smallest covering state.
func releaseLookup(p *Program, agg *bitset.Set) (int, bool, error) {
	best := -1
	for _, mc := range p.Meta {
		if mc.Set.Equal(agg) {
			return mc.ID, false, nil
		}
		if p.SupersetDispatch && agg.Subset(mc.Set) &&
			(best < 0 || mc.Set.Len() < p.Meta[best].Set.Len()) {
			best = mc.ID
		}
	}
	if best >= 0 {
		return best, false, nil
	}
	return 0, false, fmt.Errorf("no release meta state for all-barrier aggregate %s (distinct barriers simultaneously occupied? convert with BarrierExact)", agg)
}
