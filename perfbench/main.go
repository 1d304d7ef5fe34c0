// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload against the public msc API (and, for serve, the
// in-process mscd handler), checks every output against an independent
// reference, and prints one JSON result line as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs again with spans recorded around every
// call into a layer's entry point, writes a Perfetto-loadable trace
// under the output directory, and the result carries the per-layer
// metrics instead. README.md describes the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// An untraced run measures its timed phase in windows and sets the
// workload up afresh before each one: at least once, and again while
// that gap's set-ups took under setupGap, up to gapSetups times. Each
// window runs on the last set-up before it. setup_s is the median of
// all the set-ups, which are spread across the run as the windows are,
// so a slow spell of the machine moves a few of them rather than all.
const (
	windows   = 5
	gapSetups = 3
	setupGap  = 400 * time.Millisecond
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload set-up receives.
type env struct {
	seed    int64
	root    string // checkout root: the corpus is read from here
	out     string // build/output directory: traces and cache stores
	clients int
	// trace is non-nil in the traced mode; workloads then record
	// spans around their layer calls into it.
	trace *tracer
}

// bench is a workload after set-up.
type bench interface {
	// deck is one round of ops: entry indices, repeated by weight.
	// Every round is a seeded permutation of the same deck.
	deck() []int
	// entryName names an entry in failure listings.
	entryName(e int) string
	// op runs op seq on entry e and checks its output off the clock.
	// It returns the latency on the clock and a non-nil error when the
	// output is wrong or the op failed unexpectedly. tr is nil in the
	// untraced phase.
	op(seq, e int, tr *tracer) (time.Duration, error)
	// counts returns the deterministic end-to-end counts over the
	// workload's distinct programs: simd_cycles and code_slots.
	counts() (simdCycles, codeSlots int64)
	// layers adds the workload's per-layer metrics from the traced
	// phase (and its own deterministic passes) to m. It returns an
	// error when the equivalence gate fails.
	layers(m map[string]metric, tr *tracer) error
	close() error
}

type workload struct {
	name    string
	clients int
	setup   func(*env) (bench, error)
	// tail is the percentile latency_tail_ms reports: the highest
	// ladder rung that keeps at least minBeyond samples beyond it in
	// every window of a run of BENCHMARK.json's run_seconds on a 2-CPU
	// machine, fixed so the metric means the same thing on every machine.
	tail float64
}

var workloads = []workload{
	{"compile", 1, setupCompile, 99},
	{"explode", 1, setupExplode, 90},
	{"serve", runtime.NumCPU(), setupServe, 99},
	{"run", 1, setupRun, 90},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: compile, explode, serve or run")
	seed := flag.Int64("seed", 1, "workload seed; it alone fixes the op sequence")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced per-layer mode")
	out := flag.String("out", ".bench_build", "directory for traces and artifact caches")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o777)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output directory:", err)
		return 1
	}
	e := &env{seed: *seed, root: root, out: outDir, clients: w.clients}
	budget := time.Duration(*seconds) * time.Second

	var res *result
	if *traceFlag == 1 {
		res, err = tracedRun(w, e, budget)
	} else {
		res, err = endToEnd(w, e, budget)
	}
	if res == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		// The result was printed (correct=false) so the failure is on
		// record; the exit code still marks the run as failed.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// endToEnd alternates set-ups with the windows of the timed phase,
// which runs untraced, and reports the end-to-end metrics.
func endToEnd(w *workload, e *env, budget time.Duration) (*result, error) {
	var setups []float64
	var wins []*phase
	all := &phase{clients: e.clients}
	var cycles, slots int64
	for i := 0; i < windows; i++ {
		b, err := setUp(w, e, &setups)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ph := runPhase(b, e.seed, len(all.rounds), e.clients, budget/windows, nil)
		cycles, slots = b.counts()
		if err := b.close(); err != nil {
			return nil, err
		}
		// Free the window's pool before the next set-up, so
		// peak_rss_mib does not depend on when the collector ran.
		runtime.GC()
		wins = append(wins, ph)
		all.rounds = append(all.rounds, ph.rounds...)
		all.failures = append(all.failures, ph.failures...)
		all.wall += ph.wall
	}
	all.report(os.Stderr, w.name, e.seed)

	t := timingOf(wins, w.tail)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: latency_tail_ms is p%g; %d samples in %d windows; set-ups %v s\n",
		w.name, e.seed, t.tailP, all.attempted(), len(wins), setups)
	values := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       t.opsPerS,
		"latency_p50_ms":  ms(t.p50),
		"latency_tail_ms": ms(t.tail),
		"ok_frac":         all.okFrac(),
		"peak_rss_mib":    peakRSSMiB(),
		"simd_cycles":     float64(cycles),
		"code_slots":      float64(slots),
	}
	m := map[string]metric{}
	for _, d := range endToEndMetrics {
		m[d.name] = metric{values[d.name], d.unit}
	}
	return &result{
		Correct:   len(all.failures) == 0,
		Attempted: all.attempted(),
		Failed:    len(all.failures),
		Metrics:   m,
	}, nil
}

// setUp sets the workload up for one window: at least once, and again
// while these set-ups took under setupGap, up to gapSetups times. It
// appends each set-up's time to setups, closes all but the last set-up
// and returns that one.
func setUp(w *workload, e *env, setups *[]float64) (bench, error) {
	var b bench
	var spent time.Duration
	for i := 0; i < gapSetups && (i == 0 || spent < setupGap); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		start := time.Now()
		nb, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		*setups = append(*setups, d.Seconds())
		b = nb
	}
	return b, nil
}

// tracedRun sets the workload up once with its set-up spans recorded,
// measures half the budget untraced and half traced, and reports the
// per-layer metrics. The equivalence gate runs inside layers.
func tracedRun(w *workload, e *env, budget time.Duration) (*result, error) {
	tr := newTracer()
	e.trace = tr
	b, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	runtime.GC()
	plain := runPhase(b, e.seed, 0, e.clients, budget/2, nil)
	runtime.GC()
	traced := runPhase(b, e.seed, len(plain.rounds), e.clients, budget/2, tr)
	plain.report(os.Stderr, w.name+" (untraced half)", e.seed)
	traced.report(os.Stderr, w.name+" (traced half)", e.seed)

	m := map[string]metric{}
	for _, d := range layerMetrics {
		m[d.name] = metric{0, d.unit}
	}
	gateErr := b.layers(m, tr)
	m["trace_overhead_frac"] = metric{1 - traced.opsPerSecond()/plain.opsPerSecond(), "ratio"}

	path := filepath.Join(e.out, "perfbench-trace-"+w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: trace written to %s\n", w.name, path)
	failed := len(plain.failures) + len(traced.failures)
	res := &result{
		Correct:   failed == 0 && gateErr == nil,
		Attempted: plain.attempted() + traced.attempted(),
		Failed:    failed,
		Metrics:   m,
	}
	if gateErr != nil {
		return res, fmt.Errorf("equivalence gate: %w", gateErr)
	}
	return res, nil
}

// metricDecl declares one metric of the result line. BENCHMARK.json
// declares the same names and units (a self-test checks it).
type metricDecl struct{ name, unit string }

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
	{"ok_frac", "ratio"}, {"peak_rss_mib", "MiB"}, {"simd_cycles", "cycles"}, {"code_slots", "slots"},
}

// layerMetrics are printed by every traced run; a layer that makes no
// call in a workload reads 0 there.
var layerMetrics = []metricDecl{
	{"mimdc.ms", "ms"}, {"mimdc.tokens", "count"},
	{"cfg.ms", "ms"}, {"cfg.blocks", "count"},
	{"opt.ms", "ms"}, {"opt.rewrites", "count"},
	{"msc.convert_ms", "ms"}, {"msc.check_ms", "ms"},
	{"msc.meta_states", "count"}, {"msc.explored", "count"},
	{"msc.kept_ratio", "ratio"}, {"msc.restarts", "count"},
	{"analysis.ms", "ms"}, {"analysis.diagnostics", "count"},
	{"codegen.ms", "ms"}, {"codegen.slots", "count"},
	{"csi.ms", "ms"}, {"csi.saved_cycles", "cycles"},
	{"hashgen.ms", "ms"}, {"hashgen.tried", "count"}, {"hashgen.found_ratio", "ratio"},
	{"cache.get_ms", "ms"}, {"cache.put_ms", "ms"},
	{"artifact.encode_ms", "ms"}, {"artifact.decode_ms", "ms"}, {"artifact.bytes", "bytes"},
	{"cache.hit_ratio", "ratio"}, {"cache.errors", "count"},
	{"service.handle_ms", "ms"}, {"service.wire_ms", "ms"},
	{"simd.ms", "ms"}, {"simd.pe_steps_per_s", "1/s"}, {"simd.utilization", "ratio"},
	{"mimdsim.ms", "ms"},
	{"unattributed_frac", "ratio"}, {"trace_overhead_frac", "ratio"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
