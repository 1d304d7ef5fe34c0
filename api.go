// Package msc is a complete implementation of Meta-State Conversion
// (H. G. Dietz, "Meta-State Conversion", Purdue TR-EE 93-6 / ICPP 1993):
// a compiler that converts control-parallel MIMD (SPMD) programs into
// pure SIMD code by building a finite automaton over "meta states" —
// aggregate sets of simultaneously occupied per-processor states.
//
// The pipeline is
//
//	MIMDC source ──parse/analyze──▶ MIMD state graph (basic blocks)
//	            ──meta-state conversion──▶ meta-state automaton
//	            ──SIMD coding (CSI, hashed multiway branches)──▶ SIMD program
//
// and the package bundles three execution engines for evaluation:
//
//   - the SIMD machine itself (one control unit, N PEs, global-or,
//     router) executing the converted program;
//   - a MIMD reference machine (one pc per processor) providing golden
//     results and ideal-MIMD timing;
//   - the §1.1 baseline: a MIMD interpreter running on the SIMD machine,
//     paying fetch/decode/serialization overhead and per-PE program
//     memory.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-artifact reproductions.
package msc

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"msc/internal/analysis"
	"msc/internal/cfg"
	"msc/internal/codegen"
	"msc/internal/faultinject"
	"msc/internal/gobackend"
	"msc/internal/interp"
	"msc/internal/mimdc"
	"msc/internal/mimdsim"
	metastate "msc/internal/msc"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/opt"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

// Typed pipeline errors, re-exported from the shared leaf package so
// engines and the root API report one taxonomy. Match with errors.As:
//
//	var be *msc.BudgetError      // a resource budget was exceeded
//	var se *msc.StepLimitError   // an engine hit its step budget
//	var ie *msc.InternalError    // a contained compiler panic
//	var ce *msc.CacheError       // an artifact-cache operation failed
type (
	BudgetError    = mscerr.BudgetError
	StepLimitError = mscerr.StepLimitError
	InternalError  = mscerr.InternalError
	CacheError     = mscerr.CacheError
)

// WidthLimitError reports a RunConfig.Sink that reads per-PE timeline
// rows (obs.ReadsRows) attached above the width the SIMD engine
// supports them at (simd.ObsWidthCap): a row is O(N) per meta state, so
// mega-width runs must go without. Match with errors.As.
type WidthLimitError = simd.WidthLimitError

// DefaultMaxSteps is the default engine step budget (RunConfig.MaxSteps
// when zero): large enough for every paper workload, small enough that a
// non-terminating program fails in seconds rather than hanging.
const DefaultMaxSteps = mscerr.DefaultMaxSteps

// Limits bounds the resources one Compile may consume. The zero value
// means "no limit" for every field; overruns surface as *BudgetError
// (and, with Config.Degrade, trigger the degradation ladder instead).
type Limits struct {
	// Deadline is the wall-clock budget per compile attempt. Exceeding
	// it returns a *BudgetError with Resource "wall_clock". A
	// CompileService also bounds a request's run by it, as a fresh
	// budget with Phase "run".
	Deadline time.Duration
	// MaxStates caps the meta-state automaton size (Resource
	// "meta_states"). Non-zero wins over Config.MaxStates.
	MaxStates int
	// MaxCSICandidates caps the merge candidates the CSI permutation
	// search may examine per meta state (Resource "csi_candidates").
	MaxCSICandidates int64
	// MaxMemBytes caps the approximate conversion-core memory high-water
	// mark, estimated from interner and pool stats (Resource
	// "mem_bytes"). Approximate: the estimate tracks the dominant
	// allocations (meta-state sets and the intern table), not the Go
	// heap.
	MaxMemBytes int64
}

// Validate reports the first out-of-range field.
func (l Limits) Validate() error {
	if l.Deadline < 0 {
		return fmt.Errorf("msc: Limits.Deadline must be >= 0 (0 means no deadline), got %v", l.Deadline)
	}
	if l.MaxStates < 0 {
		return fmt.Errorf("msc: Limits.MaxStates must be >= 0 (0 means Config.MaxStates), got %d", l.MaxStates)
	}
	if l.MaxCSICandidates < 0 {
		return fmt.Errorf("msc: Limits.MaxCSICandidates must be >= 0 (0 means unlimited), got %d", l.MaxCSICandidates)
	}
	if l.MaxMemBytes < 0 {
		return fmt.Errorf("msc: Limits.MaxMemBytes must be >= 0 (0 means unlimited), got %d", l.MaxMemBytes)
	}
	return nil
}

// DegradeStep records one rung of the graceful-degradation ladder: the
// budget overrun that triggered it and the cheaper setting retried with.
type DegradeStep struct {
	// Phase is the pipeline phase that exceeded its budget.
	Phase string `json:"phase"`
	// Resource is the budget that was exceeded (BudgetError.Resource).
	Resource string `json:"resource"`
	// Action describes the setting that was relaxed for the retry.
	Action string `json:"action"`
}

// Config selects the conversion and encoding options.
type Config struct {
	// Compress applies §2.5 meta-state compression (both successors
	// always taken; unconditional transitions; subset states merged).
	Compress bool
	// TimeSplit applies the §2.4 MIMD-state time-splitting heuristic.
	// SplitDelta and SplitPercent tune it (0 means the paper defaults:
	// 4 cycles and 75%).
	TimeSplit    bool
	SplitDelta   int
	SplitPercent int
	// BarrierExact tracks barrier occupancy exactly instead of the §2.6
	// filtering; sound for programs where distinct barriers are
	// simultaneously occupied, at the cost of more meta states.
	BarrierExact bool
	// ExpandCalls expands non-recursive calls in-line per §2.2 instead
	// of sharing one copy with return-token dispatch.
	ExpandCalls bool
	// CSI applies common subexpression induction (§3.1) to meta-state
	// bodies; Hash encodes multiway branches with customized hash
	// functions and jump tables (§3.2).
	CSI  bool
	Hash bool
	// MaxStates guards the meta-state explosion (default 65536).
	MaxStates int
	// ConvertWorkers bounds the conversion worker pool that expands the
	// meta-state frontier in parallel: 0 uses all of GOMAXPROCS, 1
	// forces the sequential path. The automaton is byte-identical for
	// any value (see docs/PERFORMANCE.md); the knob only trades compile
	// wall-clock for cores.
	ConvertWorkers int
	// Vet fails Compile when the static analyzer finds error-severity
	// diagnostics (definite use-before-init, barrier deadlock). The
	// analyzer runs and Compiled.Diagnostics is populated regardless;
	// Vet only decides whether errors abort the pipeline.
	Vet bool
	// Opt selects the dataflow optimization level applied to the MIMD
	// state graph before conversion: 0 (default) disables the optimizer
	// entirely, 1 runs one round of constant materialization, branch
	// folding, dead-store elimination, and cleanup, 2 iterates the full
	// pass pipeline (copy propagation included) to a fixed point. The
	// observable behavior of the compiled program is unchanged at every
	// level (the differential test gate proves it over the corpus);
	// higher levels trade compile time for fewer MIMD states and
	// therefore fewer meta states. Diagnostics always describe the
	// unoptimized program: with Opt > 0 the vet phase analyzes a
	// pre-optimization snapshot of the graph.
	Opt int
	// Verify runs the full cross-phase IR verifier (cfg.VerifyAll)
	// after lowering and simplification and between every optimizer
	// pass, failing the compile with an internal error on the first
	// broken invariant. Race-detector builds verify optimizer passes
	// regardless; Verify opts regular builds in.
	Verify bool
	// Limits bounds the resources one compile may consume (wall clock,
	// meta states, CSI search, approximate memory). The zero value means
	// no limits. Overruns return *BudgetError — or, with Degrade set,
	// walk the degradation ladder instead.
	Limits Limits
	// Cache, when non-nil, fronts the pipeline with the on-disk artifact
	// cache (OpenCache): compiles are content-addressed by source hash,
	// config fingerprint, and codec version, concurrent identical
	// compiles are deduplicated single-flight, and any cache failure
	// degrades transparently to a real compile (recorded in
	// Stats.CacheOutcome/CacheErrors and the cache.* counters, never
	// fatal). Cache hits return a Compiled with a nil AST — every other
	// field, including the automaton and SIMD program, is rebuilt
	// byte-identically from the artifact. See docs/CACHE.md.
	Cache *Cache
	// Degrade opts in to graceful degradation: when a compile attempt
	// exceeds a budget in Limits, retry with progressively cheaper
	// settings (barrier-exact → §2.6 filtering, then time-splitting off,
	// then CSI → linear schedule) instead of failing. Each rung is
	// recorded in Compiled.Degradations and the degrade.steps counter.
	Degrade bool
	// Metrics, when non-nil, receives this compile's metrics when it
	// ends, successful or not: each phase wall time as the counter
	// phase.<name> in nanoseconds, the domain counters of the obs
	// glossary (docs/OBSERVABILITY.md), and the compile.latency_ns and
	// compile.meta_states histograms. Compile records into a recorder
	// of its own, whose typed view is Compiled.Stats, so a registry
	// shared by many compiles never changes what Stats reports. Serve
	// it in Prometheus form via obs.DebugServer.MountMetrics.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records the compile as a hierarchical span
	// tree: one compile root (per attempt when degrading), a phase.*
	// child per pipeline phase, and — via the conversion options — one
	// span per frontier generation and parallel worker. Budget overruns,
	// degradation rungs, and contained panics attach as span events.
	// Export with telemetry.Tracer.WriteJSONL or WriteChromeTrace (the
	// `msc trace` subcommand drives this). Nil costs nothing: every span
	// operation no-ops on the nil tracer.
	Tracer *telemetry.Tracer
	// TraceParent optionally parents the compile span under an existing
	// span of Tracer (e.g. a service request span). Zero means root.
	TraceParent telemetry.SpanID
}

// Validate reports the first out-of-range field. Compile rejects
// invalid configurations up front instead of silently ignoring them.
func (c Config) Validate() error {
	if c.SplitDelta < 0 {
		return fmt.Errorf("msc: Config.SplitDelta must be >= 0 (0 means the paper default of 4 cycles), got %d", c.SplitDelta)
	}
	if c.SplitPercent < 0 || c.SplitPercent > 100 {
		return fmt.Errorf("msc: Config.SplitPercent must be in [0,100] (0 means the paper default of 75), got %d", c.SplitPercent)
	}
	if c.MaxStates < 0 {
		return fmt.Errorf("msc: Config.MaxStates must be >= 0 (0 means the default of 65536), got %d", c.MaxStates)
	}
	if c.ConvertWorkers < 0 {
		return fmt.Errorf("msc: Config.ConvertWorkers must be >= 0 (0 means GOMAXPROCS), got %d", c.ConvertWorkers)
	}
	if c.Opt < 0 || c.Opt > 2 {
		return fmt.Errorf("msc: Config.Opt must be 0, 1, or 2, got %d", c.Opt)
	}
	return c.Limits.Validate()
}

// DefaultConfig is the recommended production configuration: the
// compressed automaton with both SIMD coding optimizations.
func DefaultConfig() Config {
	return Config{Compress: true, CSI: true, Hash: true}
}

// Compiled is a fully converted program with every intermediate stage
// retained for inspection.
type Compiled struct {
	Source    string
	AST       *mimdc.Program
	Graph     *cfg.Graph
	Automaton *metastate.Automaton
	Program   *simd.Program
	Config    Config
	// Stats is the typed compile-metrics view: per-phase wall times and
	// the pipeline's domain counters. Always populated.
	Stats *CompileStats
	// Diagnostics holds the static analyzer's findings (sorted by source
	// position). Populated whether or not Config.Vet is set; with Vet
	// set, Compile fails instead when any finding is error severity.
	Diagnostics []Diagnostic
	// Degradations lists the degradation-ladder rungs taken to get this
	// result (empty when the first attempt fit the budgets). Each entry
	// names the budget exceeded and the setting relaxed in response.
	Degradations []DegradeStep
}

// Diagnostic and Severity re-export the static analyzer's finding
// types, so callers can consume Compiled.Diagnostics and Analyze
// results without importing the internal package path.
type (
	Diagnostic = analysis.Diagnostic
	Severity   = analysis.Severity
)

// Severity levels of a Diagnostic. Only SevError gates builds.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// Analyze runs the full static-analysis suite — the dataflow checks
// over the MIMD state graph plus, when a is non-nil, the whole-program
// parallel-safety checks over the meta-state automaton — and returns
// the sorted diagnostics. It is the library form of `msc vet`.
func Analyze(g *cfg.Graph, a *metastate.Automaton) []Diagnostic {
	return analysis.Analyze(g, a)
}

// CompileStats is the typed form of the compile metrics one
// CompileContext call records (Config.Metrics receives them too).
type CompileStats struct {
	// PhaseWall holds per-phase wall time in pipeline order.
	PhaseWall []obs.Phase `json:"phases"`
	// Front end.
	TokensParsed         int64 `json:"tokens_parsed"`
	BlocksBeforeSimplify int64 `json:"blocks_before_simplify"`
	BlocksAfterSimplify  int64 `json:"blocks_after_simplify"`
	// Meta-state conversion. MetaExplored counts states interned across
	// every restart attempt (so it can exceed MetaStates); MetaMerged
	// counts §2.5 subset-merged states; AggregatesFiltered counts §2.6
	// barrier-filtered aggregates; WorklistHighWater is the conversion
	// work-list peak.
	MetaStates         int64 `json:"meta_states"`
	MIMDStates         int64 `json:"mimd_states"`
	MetaExplored       int64 `json:"meta_explored"`
	MetaMerged         int64 `json:"meta_merged"`
	AggregatesFiltered int64 `json:"aggregates_barrier_filtered"`
	WorklistHighWater  int64 `json:"worklist_high_water"`
	TimeSplits         int64 `json:"time_splits"`
	Restarts           int64 `json:"restarts"`
	// SIMD coding.
	CSISavedCycles      int64 `json:"csi_saved_cycles"`
	CSISlotsSaved       int64 `json:"csi_slots_saved"`
	HashCandidatesTried int64 `json:"hash_candidates_tried"`
	HashTablesBuilt     int64 `json:"hash_tables_built"`
	DispatchEntries     int64 `json:"dispatch_entries"`
	// Optimizer (the opt phase, Config.Opt > 0): per-pass rewrite
	// counts and fixed-point rounds.
	OptConstFolds       int64 `json:"opt_const_folds"`
	OptDeadStores       int64 `json:"opt_dead_stores"`
	OptBranchesPruned   int64 `json:"opt_branches_pruned"`
	OptCopiesPropagated int64 `json:"opt_copies_propagated"`
	OptRounds           int64 `json:"opt_rounds"`
	// Static analysis (the vet phase).
	VetDiagnostics int64 `json:"vet_diagnostics"`
	VetErrors      int64 `json:"vet_errors"`
	VetWarnings    int64 `json:"vet_warnings"`
	// Robustness: degradation-ladder rungs taken and total budget
	// overruns (summed across budget.* counters) during this compile.
	DegradeSteps   int64 `json:"degrade_steps"`
	BudgetOverruns int64 `json:"budget_overruns"`
	// Artifact cache (Config.Cache). CacheOutcome says how this Compiled
	// was obtained: "" (cache off), "hit" (decoded from the store),
	// "stored" (compiled and written back), "uncached" (compiled; not
	// stored — degraded results are never cached), or
	// "singleflight-shared" (another request's in-flight result).
	// CacheErrors lists the typed cache failures absorbed along the way
	// (each one degraded the cache, never the compile).
	CacheOutcome string   `json:"cache_outcome,omitempty"`
	CacheErrors  []string `json:"cache_errors,omitempty"`
}

// statsFromRecorder builds the typed view over the well-known names.
func statsFromRecorder(r *obs.Recorder) *CompileStats {
	m := r.Snapshot()
	return &CompileStats{
		PhaseWall:            m.Phases,
		TokensParsed:         m.Counter(obs.CounterTokens),
		BlocksBeforeSimplify: m.Counter(obs.CounterBlocksBefore),
		BlocksAfterSimplify:  m.Counter(obs.CounterBlocksAfter),
		MetaStates:           m.Counter(obs.CounterMetaStates),
		MIMDStates:           m.Counter(obs.CounterMIMDStates),
		MetaExplored:         m.Counter(obs.CounterMetaExplored),
		MetaMerged:           m.Counter(obs.CounterMetaMerged),
		AggregatesFiltered:   m.Counter(obs.CounterMetaFiltered),
		WorklistHighWater:    m.Counter(obs.CounterWorklistHigh),
		TimeSplits:           m.Counter(obs.CounterSplits),
		Restarts:             m.Counter(obs.CounterRestarts),
		CSISavedCycles:       m.Counter(obs.CounterCSISavedCycles),
		CSISlotsSaved:        m.Counter(obs.CounterCSISlotsSaved),
		HashCandidatesTried:  m.Counter(obs.CounterHashTried),
		HashTablesBuilt:      m.Counter(obs.CounterHashTables),
		DispatchEntries:      m.Counter(obs.CounterDispatchEntries),
		OptConstFolds:        m.Counter(obs.CounterOptConstFolds),
		OptDeadStores:        m.Counter(obs.CounterOptDeadStores),
		OptBranchesPruned:    m.Counter(obs.CounterOptBranchesPruned),
		OptCopiesPropagated:  m.Counter(obs.CounterOptCopiesProp),
		OptRounds:            m.Counter(obs.CounterOptRounds),
		VetDiagnostics:       m.Counter(obs.CounterVetDiags),
		VetErrors:            m.Counter(obs.CounterVetErrors),
		VetWarnings:          m.Counter(obs.CounterVetWarnings),
		DegradeSteps:         m.Counter(obs.CounterDegradeSteps),
		BudgetOverruns:       m.PrefixSum(obs.BudgetCounterPrefix),
	}
}

// Compile runs the whole pipeline on MIMDC source. It is
// CompileContext with a background context.
func Compile(source string, conf Config) (*Compiled, error) {
	return CompileContext(context.Background(), source, conf)
}

// CompileContext runs the whole pipeline on MIMDC source under ctx.
// Cancellation is checked at every phase boundary, per committed meta
// state inside conversion, and the conversion worker pool drains before
// returning — no goroutines outlive a canceled compile. Budget overruns
// (Config.Limits) return *BudgetError, or walk the degradation ladder
// when Config.Degrade is set; panics in any phase are contained as
// *InternalError.
func CompileContext(ctx context.Context, source string, conf Config) (*Compiled, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	defer rec.AddTo(conf.Metrics)
	if conf.Cache != nil {
		return conf.Cache.compile(ctx, source, conf, rec)
	}
	return compileFull(ctx, source, conf, rec)
}

// compileFull is the uncached pipeline: the degradation-ladder loop
// around compileOnce, every attempt recording into rec. The cache layer
// calls it on a miss; everything else about it predates the cache and
// is unchanged by it.
func compileFull(ctx context.Context, source string, conf Config, rec *obs.Recorder) (*Compiled, error) {
	start := time.Now()
	span := conf.Tracer.StartSpan("compile", conf.TraceParent,
		telemetry.Int("source_bytes", int64(len(source))))
	defer span.End()

	var degradations []DegradeStep
	for {
		c, err := compileOnce(ctx, source, conf, rec, span)
		if err == nil {
			c.Degradations = degradations
			observeCompile(conf.Metrics, span, start, c)
			return c, nil
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			span.Event("error", telemetry.String("error", err.Error()))
			return nil, err
		}
		rec.Add(obs.BudgetCounterPrefix+be.Resource, 1)
		span.Event("budget_overrun",
			telemetry.String("phase", be.Phase), telemetry.String("resource", be.Resource),
			telemetry.Int("limit", be.Limit), telemetry.Int("used", be.Used))
		if !conf.Degrade {
			return nil, err
		}
		step, ok := degradeStep(&conf, be)
		if !ok {
			return nil, err
		}
		rec.Add(obs.CounterDegradeSteps, 1)
		span.Event("degrade",
			telemetry.String("resource", step.Resource), telemetry.String("action", step.Action))
		degradations = append(degradations, step)
	}
}

// Histogram buckets for the compile-level telemetry: latency from 100µs
// to ~17min, automaton sizes from 1 to 256k meta states, engine runs
// from 100 cycles to 1e10. Fixed here so Prometheus expositions are
// comparable across processes.
var (
	latencyBuckets = telemetry.ExpBuckets(1e5, 10, 8)
	statesBuckets  = telemetry.ExpBuckets(1, 4, 10)
	cyclesBuckets  = telemetry.ExpBuckets(100, 10, 9)
)

// observeCompile lands the per-compile histogram observations in reg
// and finishes the compile span.
func observeCompile(reg *telemetry.Registry, span *telemetry.Span, start time.Time, c *Compiled) {
	reg.Histogram("compile.latency_ns", "compile wall time (ns)", latencyBuckets).
		Observe(time.Since(start).Nanoseconds())
	reg.Histogram("compile.meta_states", "meta states per compile", statesBuckets).
		Observe(int64(c.MetaStates()))
	span.SetAttr(telemetry.Int("meta_states", int64(c.MetaStates())))
	span.SetAttr(telemetry.Int("mimd_states", int64(c.MIMDStates())))
}

// degradeStep takes one rung down the degradation ladder: it relaxes
// the most expensive still-enabled setting in conf and reports what it
// did, or reports false when the ladder is exhausted. A CSI-search
// overrun skips straight to disabling CSI — relaxing conversion
// settings would not shrink the schedule search.
func degradeStep(conf *Config, be *BudgetError) (DegradeStep, bool) {
	step := DegradeStep{Phase: be.Phase, Resource: be.Resource}
	if be.Resource == "csi_candidates" && conf.CSI {
		conf.CSI = false
		step.Action = "csi off (linear schedule)"
		return step, true
	}
	switch {
	case conf.BarrierExact:
		conf.BarrierExact = false
		step.Action = "barrier-exact off (§2.6 barrier filtering)"
	case conf.TimeSplit:
		conf.TimeSplit = false
		step.Action = "time-splitting off"
	case conf.CSI:
		conf.CSI = false
		step.Action = "csi off (linear schedule)"
	default:
		return DegradeStep{}, false
	}
	return step, true
}

// pipelineRun threads the per-attempt context and phase bookkeeping
// through compileOnce.
type pipelineRun struct {
	ctx    context.Context
	rec    *obs.Recorder
	tracer *telemetry.Tracer
	parent *telemetry.Span // compile span; nil when tracing is off
	span   *telemetry.Span // current phase span, for child spans
	phase  string          // last phase entered, for wall-clock attribution
}

// run executes one pipeline phase under the attempt context: it checks
// cancellation at the boundary, fires the fault-injection hook, records
// the phase wall time and span, and contains panics as *InternalError.
// A contained panic still closes the phase span, carrying a "panic"
// event — a trace of a crashed compile shows where and why it died.
func (pr *pipelineRun) run(phase string, fn func() error) (err error) {
	pr.phase = phase
	if cerr := pr.ctx.Err(); cerr != nil {
		return fmt.Errorf("msc: canceled before %s: %w", phase, cerr)
	}
	stop := pr.rec.Phase(phase)
	span := pr.parent.StartChild("phase." + phase)
	pr.span = span
	defer stop()
	defer func() {
		if r := recover(); r != nil {
			span.Event("panic", telemetry.String("value", fmt.Sprint(r)))
			err = &InternalError{Phase: phase, Panic: fmt.Sprint(r), Stack: debug.Stack()}
		}
		span.End()
		pr.span = nil
	}()
	if ferr := faultinject.OnPhase(phase); ferr != nil {
		return ferr
	}
	return fn()
}

// compileOnce runs the pipeline once under the attempt's own deadline
// (Limits.Deadline is per attempt, so a degraded retry gets a fresh
// budget).
func compileOnce(ctx context.Context, source string, conf Config, rec *obs.Recorder, span *telemetry.Span) (*Compiled, error) {
	start := time.Now()
	ctx, cancel, ownDeadline := withWallClock(ctx, conf.Limits.Deadline)
	defer cancel()
	pr := &pipelineRun{ctx: ctx, rec: rec, tracer: conf.Tracer, parent: span}

	c, err := pipeline(pr, source, conf, rec)
	if err != nil && ownDeadline && errors.Is(err, context.DeadlineExceeded) {
		// The attempt's own wall-clock budget ran out: report it as a
		// budget overrun so Degrade can retry with cheaper settings.
		return nil, wallClockOverrun(pr.phase, conf.Limits.Deadline, start)
	}
	return c, err
}

// withWallClock bounds ctx by a fresh wall-clock budget d when d > 0.
// The budget is "ours" (own is true) only when it is the binding
// deadline: a caller context that already expires sooner governs, and
// exceeding it must surface as the caller's DeadlineExceeded — not as
// a budget overrun that Degrade would pointlessly retry against a dead
// context.
func withWallClock(ctx context.Context, d time.Duration) (_ context.Context, cancel context.CancelFunc, own bool) {
	if d <= 0 {
		return ctx, func() {}, false
	}
	pd, ok := ctx.Deadline()
	own = !ok || time.Until(pd) > d
	ctx, cancel = context.WithTimeout(ctx, d)
	return ctx, cancel, own
}

// wallClockOverrun reports that phase ran out of its own wall-clock
// budget d, started at start. The deadline error stays in the chain via
// Err, so callers matching errors.Is(err, context.DeadlineExceeded)
// still see it.
func wallClockOverrun(phase string, d time.Duration, start time.Time) *BudgetError {
	return &BudgetError{
		Phase:    phase,
		Resource: "wall_clock",
		Limit:    int64(d),
		Used:     int64(time.Since(start)),
		Err:      context.DeadlineExceeded,
	}
}

// pipeline is the phase sequence itself.
func pipeline(pr *pipelineRun, source string, conf Config, rec *obs.Recorder) (*Compiled, error) {
	rec.Add(obs.CounterPipelineRuns, 1)
	var ast *mimdc.Program
	if err := pr.run(obs.PhaseParse, func() error {
		a, err := mimdc.Parse(source)
		if err != nil {
			return fmt.Errorf("msc: parse: %w", err)
		}
		ast = a
		return nil
	}); err != nil {
		return nil, err
	}
	rec.Add(obs.CounterTokens, int64(ast.Tokens))

	if err := pr.run(obs.PhaseAnalyze, func() error {
		if err := mimdc.Analyze(ast); err != nil {
			return fmt.Errorf("msc: analyze: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var g *cfg.Graph
	if err := pr.run(obs.PhaseLower, func() error {
		gr, err := cfg.BuildWith(ast, cfg.Options{ExpandCalls: conf.ExpandCalls})
		if err != nil {
			return fmt.Errorf("msc: lower: %w", err)
		}
		if conf.Verify {
			if err := cfg.VerifyAll(gr); err != nil {
				return fmt.Errorf("msc: internal error: %w", err)
			}
		}
		g = gr
		return nil
	}); err != nil {
		return nil, err
	}

	if err := pr.run(obs.PhaseSimplify, func() error {
		sstats := cfg.SimplifyWithStats(g)
		rec.Add(obs.CounterBlocksBefore, int64(sstats.BlocksBefore))
		rec.Add(obs.CounterBlocksAfter, int64(sstats.BlocksAfter))
		verify := cfg.Verify
		if conf.Verify {
			verify = cfg.VerifyAll
		}
		if err := verify(g); err != nil {
			return fmt.Errorf("msc: internal error: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The vet phase analyzes the graph the programmer wrote; with the
	// optimizer on, that is a pre-optimization snapshot (materialized
	// constants and eliminated stores would otherwise shift diagnostics
	// away from the source).
	vetG := g
	if conf.Opt > 0 {
		vetG = g.Clone()
		if err := pr.run(obs.PhaseOpt, func() error {
			ostats, err := opt.Run(g, opt.Options{Level: conf.Opt, Verify: conf.Verify})
			rec.Add(obs.CounterOptConstFolds, int64(ostats.ConstFolds))
			rec.Add(obs.CounterOptDeadStores, int64(ostats.DeadStores))
			rec.Add(obs.CounterOptBranchesPruned, int64(ostats.BranchesPruned))
			rec.Add(obs.CounterOptCopiesProp, int64(ostats.CopiesPropagated))
			rec.Add(obs.CounterOptRounds, int64(ostats.Rounds))
			if pr.span != nil {
				pr.span.SetAttr(telemetry.Int("const_folds", int64(ostats.ConstFolds)))
				pr.span.SetAttr(telemetry.Int("dead_stores", int64(ostats.DeadStores)))
				pr.span.SetAttr(telemetry.Int("branches_pruned", int64(ostats.BranchesPruned)))
				pr.span.SetAttr(telemetry.Int("copies_propagated", int64(ostats.CopiesPropagated)))
				pr.span.SetAttr(telemetry.Int("rounds", int64(ostats.Rounds)))
			}
			if err != nil {
				return fmt.Errorf("msc: internal error: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	mopt := conversionOptions(conf)
	mopt.Metrics = rec
	mopt.Trace = conf.Tracer
	var a *metastate.Automaton
	if err := pr.run(obs.PhaseConvert, func() error {
		if pr.span != nil {
			mopt.TraceParent = pr.span.ID
		}
		au, err := metastate.ConvertContext(pr.ctx, g, mopt)
		if err != nil {
			var be *BudgetError
			if errors.As(err, &be) {
				return be
			}
			return fmt.Errorf("msc: convert: %w", err)
		}
		a = au
		return nil
	}); err != nil {
		return nil, err
	}

	if err := pr.run(obs.PhaseCheck, func() error {
		if err := metastate.Check(a); err != nil {
			return fmt.Errorf("msc: internal error: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var diags []Diagnostic
	if err := pr.run(obs.PhaseVet, func() error {
		diags = analysis.Analyze(vetG, a)
		nErr, nWarn, _ := analysis.CountBySeverity(diags)
		rec.Add(obs.CounterVetDiags, int64(len(diags)))
		rec.Add(obs.CounterVetErrors, int64(nErr))
		rec.Add(obs.CounterVetWarnings, int64(nWarn))
		if conf.Vet && nErr > 0 {
			var sb []string
			for _, d := range diags {
				if d.Sev == analysis.SevError {
					sb = append(sb, d.String())
				}
			}
			return fmt.Errorf("msc: vet: %s", strings.Join(sb, "; "))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var p *simd.Program
	if err := pr.run(obs.PhaseCodegen, func() error {
		pg, err := codegen.Compile(a, codegen.Options{
			Hash:             conf.Hash,
			CSI:              conf.CSI,
			MaxCSICandidates: conf.Limits.MaxCSICandidates,
			Metrics:          rec,
		})
		if err != nil {
			var be *BudgetError
			if errors.As(err, &be) {
				return be
			}
			return fmt.Errorf("msc: codegen: %w", err)
		}
		p = pg
		return nil
	}); err != nil {
		return nil, err
	}

	return &Compiled{
		Source:      source,
		AST:         ast,
		Graph:       g,
		Automaton:   a,
		Program:     p,
		Config:      conf,
		Stats:       statsFromRecorder(rec),
		Diagnostics: diags,
	}, nil
}

// conversionOptions maps Config to the converter's effective options —
// defaults applied, Limits overrides folded in. The cache's config
// fingerprint hashes exactly these effective values (plus the front-end
// and codegen knobs), so two Configs that convert identically share a
// cache key and two that do not cannot collide.
func conversionOptions(conf Config) metastate.Options {
	mopt := metastate.DefaultOptions(conf.Compress)
	mopt.TimeSplit = conf.TimeSplit
	if conf.SplitDelta != 0 {
		mopt.SplitDelta = conf.SplitDelta
	}
	if conf.SplitPercent != 0 {
		mopt.SplitPercent = conf.SplitPercent
	}
	mopt.BarrierExact = conf.BarrierExact
	if conf.MaxStates != 0 {
		mopt.MaxStates = conf.MaxStates
	}
	if conf.Limits.MaxStates != 0 {
		mopt.MaxStates = conf.Limits.MaxStates
	}
	mopt.MaxMemBytes = conf.Limits.MaxMemBytes
	mopt.Workers = conf.ConvertWorkers
	return mopt
}

// MustCompile compiles and panics on error; for examples and tests.
func MustCompile(source string, conf Config) *Compiled {
	c, err := Compile(source, conf)
	if err != nil {
		panic(err)
	}
	return c
}

// RunConfig selects the machine shape for an execution.
type RunConfig struct {
	// N is the machine width. InitialActive PEs start in main (0 = all);
	// the remainder wait in the free pool for spawn (§3.2.5).
	N             int
	InitialActive int
	// Workers sets the SIMD engine's chunk-execution worker count: 0
	// means GOMAXPROCS, 1 forces the sequential path. The Result is
	// byte-identical at any setting — chunks commit in ID order — so
	// this only trades wall time for cores. Other engines ignore it.
	Workers int
	// Sink, when non-nil, receives the SIMD engine's execution events:
	// obs.TextSink renders the text trace (one line per meta state),
	// the per-PE timeline or both, obs.JSONLSink writes them as JSON
	// lines, and any custom obs.Sink may consume them. A sink that reads
	// the O(N) per-PE timeline rows (obs.ReadsRows) is refused above
	// simd.ObsWidthCap with a *WidthLimitError; a text trace alone runs
	// at any width.
	Sink obs.Sink
	// MaxSteps bounds the engine's step count (meta-state executions on
	// the SIMD machine, per-PE blocks on the MIMD reference machine,
	// rounds in the interpreter); 0 means DefaultMaxSteps. Exceeding it
	// returns a *StepLimitError instead of hanging on a non-terminating
	// program (`msc vet` flags definite no-halt/livelock statically).
	MaxSteps int
	// Tracer, when non-nil, records the execution as a run.<engine> span
	// carrying the machine shape and final cycle count; TraceParent
	// optionally nests it under an existing span (e.g. the compile span,
	// giving one compile→run trace). Nil costs nothing.
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
	// Profiler, when non-nil, receives sampled attribution of engine
	// cycles to meta states and source blocks; render the result with
	// telemetry.Profiler.WriteFolded (the `msc profile -folded` output).
	Profiler *telemetry.Profiler
	// Metrics, when non-nil, accumulates an engine.cycles histogram
	// (labeled by engine) per run — the scrape-side complement of the
	// per-run Result struct.
	Metrics *telemetry.Registry
}

// Validate reports the first out-of-range field with a descriptive
// error. The Run methods reject invalid configurations up front.
func (rc RunConfig) Validate() error {
	if rc.N < 1 {
		return fmt.Errorf("msc: RunConfig.N must be >= 1 (machine width), got %d", rc.N)
	}
	if rc.InitialActive < 0 {
		return fmt.Errorf("msc: RunConfig.InitialActive must be >= 0 (0 means all %d PEs), got %d", rc.N, rc.InitialActive)
	}
	if rc.InitialActive > rc.N {
		return fmt.Errorf("msc: RunConfig.InitialActive %d exceeds machine width N=%d", rc.InitialActive, rc.N)
	}
	if rc.Workers < 0 {
		return fmt.Errorf("msc: RunConfig.Workers must be >= 0 (0 means GOMAXPROCS), got %d", rc.Workers)
	}
	if rc.MaxSteps < 0 {
		return fmt.Errorf("msc: RunConfig.MaxSteps must be >= 0 (0 means the default of %d), got %d", DefaultMaxSteps, rc.MaxSteps)
	}
	return nil
}

// RunSIMD executes the converted program on the SIMD machine.
func (c *Compiled) RunSIMD(rc RunConfig) (*simd.Result, error) {
	return c.RunSIMDContext(context.Background(), rc)
}

// RunSIMDContext is RunSIMD under a context: cancellation is checked
// every few thousand meta-state executions.
func (c *Compiled) RunSIMDContext(ctx context.Context, rc RunConfig) (*simd.Result, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	span := rc.Tracer.StartSpan("run.simd", rc.TraceParent, telemetry.Int("n", int64(rc.N)))
	res, err := simd.Run(c.Program, simd.Config{
		N: rc.N, InitialActive: rc.InitialActive, Workers: rc.Workers,
		Sink: rc.Sink, MaxMeta: rc.MaxSteps, Ctx: ctx, Profiler: rc.Profiler,
	})
	if res != nil {
		finishRun(span, rc, "simd", res.Time)
	} else {
		finishRun(span, rc, "simd", -1)
	}
	return res, err
}

// finishRun closes a run span and lands the engine-cycle histogram; a
// negative cycle count means the run failed before producing a result.
func finishRun(span *telemetry.Span, rc RunConfig, engine string, cycles int64) {
	if cycles >= 0 {
		span.SetAttr(telemetry.Int("cycles", cycles))
		rc.Metrics.Histogram("engine.cycles", "engine cycles per run", cyclesBuckets,
			telemetry.Label{Name: "engine", Value: engine}).Observe(cycles)
	} else {
		span.Event("error")
	}
	span.End()
}

// RunMIMD executes the MIMD state graph on the MIMD reference machine
// (ideal MIMD: one pc per processor, runtime barrier cost).
func (c *Compiled) RunMIMD(rc RunConfig) (*mimdsim.Result, error) {
	return c.RunMIMDContext(context.Background(), rc)
}

// RunMIMDContext is RunMIMD under a context: cancellation is checked
// every few thousand per-PE blocks.
func (c *Compiled) RunMIMDContext(ctx context.Context, rc RunConfig) (*mimdsim.Result, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	span := rc.Tracer.StartSpan("run.mimd", rc.TraceParent, telemetry.Int("n", int64(rc.N)))
	res, err := mimdsim.Run(c.Graph, mimdsim.Config{
		N: rc.N, InitialActive: rc.InitialActive,
		MaxBlocks: rc.MaxSteps, Ctx: ctx, Profiler: rc.Profiler,
	})
	if res != nil {
		finishRun(span, rc, "mimd", res.Time)
	} else {
		finishRun(span, rc, "mimd", -1)
	}
	return res, err
}

// RunInterp executes the §1.1 baseline: the MIMD program interpreted on
// the SIMD machine.
func (c *Compiled) RunInterp(rc RunConfig) (*interp.Result, error) {
	return c.RunInterpContext(context.Background(), rc)
}

// RunInterpContext is RunInterp under a context: cancellation is
// checked every few thousand interpreter rounds.
func (c *Compiled) RunInterpContext(ctx context.Context, rc RunConfig) (*interp.Result, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	span := rc.Tracer.StartSpan("run.interp", rc.TraceParent, telemetry.Int("n", int64(rc.N)))
	res, err := interp.Run(c.Graph, interp.Config{
		N: rc.N, InitialActive: rc.InitialActive,
		MaxRounds: rc.MaxSteps, Ctx: ctx, Profiler: rc.Profiler,
	})
	if res != nil {
		finishRun(span, rc, "interp", res.Time)
	} else {
		finishRun(span, rc, "interp", -1)
	}
	return res, err
}

// MPL renders the converted program in the MPL-like text form of the
// paper's Listing 5.
func (c *Compiled) MPL() string { return codegen.EmitMPL(c.Program) }

// EmitGo renders the converted program as a standalone, buildable Go
// main package (the §5 future-work code generator, with Go standing in
// for MPL). defaultN is the default machine width of the generated
// program's -n flag. Requires ≤ 64 MIMD states.
func (c *Compiled) EmitGo(defaultN int) (string, error) {
	return gobackend.Emit(c.Program, defaultN)
}

// DotStateGraph renders the MIMD state graph (Figure 1 style) in
// Graphviz dot.
func (c *Compiled) DotStateGraph(title string) string { return c.Graph.Dot(title) }

// DotAutomaton renders the meta-state automaton (Figures 2/5/6 style)
// in Graphviz dot.
func (c *Compiled) DotAutomaton(title string) string { return c.Automaton.Dot(title) }

// DotProfile renders the meta-state automaton as a Graphviz hot-spot
// heatmap, coloring each state by its share of the run's total cycles
// (res must come from RunSIMD on this Compiled).
func (c *Compiled) DotProfile(title string, res *simd.Result) string {
	share := make([]float64, len(res.MetaStats))
	for i, st := range res.MetaStats {
		if res.Time > 0 {
			share[i] = float64(st.Cycles) / float64(res.Time)
		}
	}
	return c.Automaton.DotHeat(title, share)
}

// Slot returns the memory slot of a global variable, for reading
// results out of run memory images. The boolean reports existence.
func (c *Compiled) Slot(name string) (int, bool) {
	s, ok := c.Graph.VarSlot[name]
	return s, ok
}

// MetaStates returns the number of meta states in the automaton.
func (c *Compiled) MetaStates() int { return c.Automaton.NumStates() }

// MIMDStates returns the number of MIMD states in the (possibly
// time-split) state graph the automaton was built over.
func (c *Compiled) MIMDStates() int { return c.Automaton.G.NumBlocks() }
