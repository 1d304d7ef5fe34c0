// Package obs is the observability layer for the whole pipeline: a
// zero-dependency (standard library only) recorder for compile-phase
// wall times and domain counters, a typed event stream that replaces
// free-form execution tracing, and production wiring for net/http/pprof
// and expvar. Every package in the compiler and every execution engine
// reports through these types, so the quantitative claims of the paper
// (meta-state counts, compression ratios, CSI savings, cycle budgets)
// are observable from one place instead of scattered Fprintf writers.
//
// The Recorder is deliberately generic — ordered named counters and
// phases — so internal packages need no schema coordination; the typed
// view over the well-known names lives with the pipeline driver (the
// root package's CompileStats). Each compile records into its own
// Recorder, which adds to a shared telemetry registry when the compile
// ends. All Recorder methods are safe on a nil receiver, so
// instrumented code never has to guard the hook.
package obs

import (
	"strings"
	"sync"
	"time"

	"msc/internal/telemetry"
)

// Well-known counter names recorded by the compile pipeline. The
// glossary lives in docs/OBSERVABILITY.md.
const (
	CounterTokens          = "parse.tokens"
	CounterBlocksBefore    = "cfg.blocks_before_simplify"
	CounterBlocksAfter     = "cfg.blocks_after_simplify"
	CounterMetaExplored    = "convert.meta_explored"
	CounterMetaMerged      = "convert.meta_merged"
	CounterMetaFiltered    = "convert.aggregates_barrier_filtered"
	CounterWorklistHigh    = "convert.worklist_high_water"
	CounterRestarts        = "convert.restarts"
	CounterSplits          = "convert.splits"
	CounterCSISavedCycles  = "codegen.csi_saved_cycles"
	CounterHashTried       = "codegen.hash_candidates_tried"
	CounterHashTables      = "codegen.hash_tables_built"
	CounterMetaStates      = "convert.meta_states"
	CounterMIMDStates      = "convert.mimd_states"
	CounterCSISlotsSaved   = "codegen.csi_slots_saved"
	CounterDispatchEntries = "codegen.dispatch_entries"
	CounterVetDiags        = "vet.diagnostics"
	CounterVetErrors       = "vet.errors"
	CounterVetWarnings     = "vet.warnings"

	// Optimizer counters (the internal/opt pass pipeline, Config.Opt).
	CounterOptConstFolds     = "opt.const_folds"
	CounterOptDeadStores     = "opt.dead_stores"
	CounterOptBranchesPruned = "opt.branches_pruned"
	CounterOptCopiesProp     = "opt.copies_propagated"
	CounterOptRounds         = "opt.rounds"

	// Conversion-core counters (the hash-consed interner, contribution
	// memo, and parallel frontier expansion; see docs/PERFORMANCE.md).
	CounterInternHits      = "convert.intern_hits"
	CounterContribMemoHits = "convert.contrib_memo_hits"
	CounterParallelGens    = "convert.parallel_generations"
	CounterConvertWorkers  = "convert.workers"
	CounterMergeScanned    = "convert.merge_candidates_scanned"

	// Robustness counters (resource budgets and the graceful-degradation
	// ladder; see docs/ROBUSTNESS.md). Budget overruns are recorded per
	// resource under BudgetCounterPrefix, e.g. "budget.meta_states".
	CounterDegradeSteps = "degrade.steps"

	// Artifact-cache counters (see docs/CACHE.md). PipelineRuns counts
	// real pipeline executions — a cache hit or a shared single-flight
	// result serves a compile without incrementing it, which is exactly
	// what the dedup tests assert.
	CounterPipelineRuns     = "compile.pipeline_runs"
	CounterCacheHits        = "cache.hits"
	CounterCacheMisses      = "cache.misses"
	CounterCacheErrors      = "cache.errors"
	CounterCacheQuarantined = "cache.quarantined"
	CounterCacheStores      = "cache.stores"
	CounterCacheShared      = "cache.singleflight_shared"
)

// BudgetCounterPrefix prefixes per-resource budget-overrun counters
// ("budget.meta_states", "budget.wall_clock", ...). Sum them with
// Metrics.PrefixSum.
const BudgetCounterPrefix = "budget."

// Phase names recorded by msc.Compile, in pipeline order.
const (
	PhaseParse    = "parse"
	PhaseAnalyze  = "analyze"
	PhaseLower    = "lower"
	PhaseSimplify = "simplify"
	PhaseOpt      = "opt" // only present when Config.Opt > 0
	PhaseConvert  = "convert"
	PhaseCheck    = "check"
	PhaseVet      = "vet"
	PhaseCodegen  = "codegen"
)

// Counter is one named value.
type Counter struct {
	Name  string
	Value int64
}

// Phase is one named wall-time measurement.
type Phase struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// PhaseMetricPrefix prefixes phase wall times when they appear in a
// telemetry registry ("phase.parse" holds parse wall nanoseconds).
const PhaseMetricPrefix = "phase."

// Recorder accumulates the phases and counters of one compile as plain
// values, in first-use order so Snapshot output is byte-stable. It is
// safe for concurrent use and all methods are no-ops on a nil
// receiver, so callers thread an optional *Recorder without nil checks
// at every site. AddTo lands what it holds in a telemetry registry.
type Recorder struct {
	mu       sync.Mutex
	phases   []Phase
	counters []counter
}

// counter is one recorded value and the operation that first recorded
// it, which AddTo repeats on the registry.
type counter struct {
	Counter
	op counterOp
}

type counterOp uint8

const (
	opAdd counterOp = iota
	opSet
	opMax
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// slot returns the named counter, creating it at zero with op first;
// callers hold r.mu.
func (r *Recorder) slot(name string, op counterOp) *Counter {
	for i := range r.counters {
		if r.counters[i].Name == name {
			return &r.counters[i].Counter
		}
	}
	r.counters = append(r.counters, counter{Counter: Counter{Name: name}, op: op})
	return &r.counters[len(r.counters)-1].Counter
}

// Phase starts timing the named phase and returns the stop function;
// repeated runs of the same phase accumulate.
func (r *Recorder) Phase(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.AddPhase(name, time.Since(start)) }
}

// AddPhase adds wall time to the named phase.
func (r *Recorder) AddPhase(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.phases {
		if r.phases[i].Name == name {
			r.phases[i].Wall += d
			return
		}
	}
	r.phases = append(r.phases, Phase{Name: name, Wall: d})
}

// Add adds delta to the named counter, creating it at zero first.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slot(name, opAdd).Value += delta
	r.mu.Unlock()
}

// Set sets the named counter.
func (r *Recorder) Set(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slot(name, opSet).Value = v
	r.mu.Unlock()
}

// Max raises the named counter to v if v is larger (high-water marks).
func (r *Recorder) Max(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.slot(name, opMax)
	c.Value = max(c.Value, v)
	r.mu.Unlock()
}

// Value returns the named counter (zero when absent or nil receiver).
func (r *Recorder) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// PhaseWall returns the accumulated wall time of the named phase.
func (r *Recorder) PhaseWall(name string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.phases {
		if p.Name == name {
			return p.Wall
		}
	}
	return 0
}

// Snapshot returns a consistent copy of everything recorded so far.
func (r *Recorder) Snapshot() *Metrics {
	m := &Metrics{}
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.Phases = append(make([]Phase, 0, len(r.phases)), r.phases...)
	m.Counters = make([]Counter, len(r.counters))
	for i, c := range r.counters {
		m.Counters[i] = c.Counter
	}
	return m
}

// AddTo adds everything recorded to reg: each phase's wall time to the
// counter PhaseMetricPrefix+name, in nanoseconds, and each counter
// with the operation that first recorded it. A registry that many
// recorders add to therefore sums the Add counters and holds the last
// value of each Set counter and the peak of each Max counter. A nil
// reg or receiver adds nothing.
func (r *Recorder) AddTo(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.phases {
		reg.Counter(PhaseMetricPrefix+p.Name, "phase wall time (ns)").Add(int64(p.Wall))
	}
	for _, c := range r.counters {
		rc := reg.Counter(c.Name, "")
		switch c.op {
		case opAdd:
			rc.Add(c.Value)
		case opSet:
			rc.Set(c.Value)
		case opMax:
			rc.Max(c.Value)
		}
	}
}

// Metrics is a point-in-time copy of a Recorder: the typed struct form
// of the compile metrics.
type Metrics struct {
	Phases   []Phase
	Counters []Counter
}

// Counter returns the named counter value, or zero.
func (m *Metrics) Counter(name string) int64 {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// PrefixSum sums every counter whose name starts with prefix; use it
// with BudgetCounterPrefix to total budget overruns across resources.
func (m *Metrics) PrefixSum(prefix string) int64 {
	var sum int64
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			sum += c.Value
		}
	}
	return sum
}
