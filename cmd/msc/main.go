// Command msc is the meta-state converter driver: it compiles a MIMDC
// source file through the full pipeline and either prints one of the
// compilation artifacts or executes the program on a chosen engine.
//
// Usage:
//
//	msc [flags] file.mc
//
// Artifacts (pick one):
//
//	-emit=graph      MIMD state graph (text)
//	-emit=dot        MIMD state graph (Graphviz, Figure 1 style)
//	-emit=automaton  meta-state automaton (text)
//	-emit=autodot    meta-state automaton (Graphviz, Figures 2/5/6 style)
//	-emit=mpl        MPL-like SIMD code (Listing 5 style)
//	-emit=go         standalone Go program executing the automaton
//	-emit=stats      pipeline statistics
//
// Execution:
//
//	-run -n=16 [-active=K] [-engine=simd|mimd|interp]
//	          [-trace] [-timeline]   (simd engine diagnostics on stderr)
//
// Profiling:
//
//	msc profile [-n=16] [-top=K] [-dot] [-folded [-sample-period=P]] file.mc
//
// runs the program on the SIMD engine and prints the per-meta-state
// hot-spot table (visits, cycles, share of total time, mean live and
// enabled PEs); -dot emits a Graphviz heatmap of the automaton instead,
// and -folded emits folded stacks (meta state -> block -> source line)
// for flamegraph.pl or speedscope, sampled every -sample-period cycles.
//
// Tracing:
//
//	msc trace [-format=chrome|jsonl] [-o=FILE] [-run [-engine=E]] file.mc
//
// compiles (and with -run executes) the program with the hierarchical
// tracer attached and exports the span tree: compile -> phases ->
// conversion generations/workers -> engine run. The chrome format loads
// directly into Perfetto or chrome://tracing.
//
// Static analysis:
//
//	msc vet [-json] [-exact-barriers] file.mc...
//
// runs the dataflow checks over the MIMD state graph (use before
// initialization, dead stores, unreachable code, constant conditions)
// and the parallel-safety checks over the meta-state automaton
// (barrier deadlock, termination), printing one diagnostic per line as
// file:line:col: severity [check-id] message. Exits nonzero only on
// error-severity findings. See docs/ANALYSIS.md for the check catalog.
//
// Conversion options mirror the paper: -compress (§2.5), -timesplit
// (§2.4), -exact-barriers (§2.6 alternative), -expand-calls (§2.2),
// -csi (§3.1), -hash (§3.2). -pprof=ADDR serves net/http/pprof, expvar
// (including the live compile metrics), and Prometheus text exposition
// at /metrics for the process lifetime. -cache=DIR fronts the compile
// with the on-disk artifact cache (docs/CACHE.md): a warm hit skips
// the pipeline entirely, and a broken cache only costs a warning.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"msc"
	"msc/internal/ir"
	"msc/internal/obs"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failure as the line main prints. API errors
// already carry the "msc: " prefix; don't double it.
func errorLine(err error) string {
	return "msc: " + strings.TrimPrefix(err.Error(), "msc: ")
}

// convFlags registers the conversion-option flags on fs and returns a
// function producing the msc.Config they select after parsing.
func convFlags(fs *flag.FlagSet) func() msc.Config {
	var (
		compress = fs.Bool("compress", false, "apply meta-state compression (§2.5)")
		timespl  = fs.Bool("timesplit", false, "apply MIMD-state time splitting (§2.4)")
		exactBar = fs.Bool("exact-barriers", false, "exact barrier occupancy instead of §2.6 filtering")
		expand   = fs.Bool("expand-calls", false, "in-line expand non-recursive calls (§2.2)")
		csi      = fs.Bool("csi", false, "apply common subexpression induction (§3.1)")
		hash     = fs.Bool("hash", false, "encode multiway branches with customized hash functions (§3.2)")
		maxState = fs.Int("max-states", 0, "meta-state space bound (0 = default 65536)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget per compile attempt (0 = none)")
		degrade  = fs.Bool("degrade", false, "on budget overrun, retry with progressively cheaper settings")
		optLevel = fs.Int("O", 0, "dataflow optimization level: 0 off, 1 one round, 2 fixed point")
		verify   = fs.Bool("verify", false, "run the cross-phase IR verifier between pipeline phases")
	)
	return func() msc.Config {
		return msc.Config{
			Compress:     *compress,
			TimeSplit:    *timespl,
			BarrierExact: *exactBar,
			ExpandCalls:  *expand,
			CSI:          *csi,
			Hash:         *hash,
			MaxStates:    *maxState,
			Limits:       msc.Limits{Deadline: *timeout},
			Degrade:      *degrade,
			Opt:          *optLevel,
			Verify:       *verify,
		}
	}
}

// startDebug starts the pprof/expvar server when addr is non-empty
// and serves the compile's metrics registry as Prometheus text at
// /metrics. The returned closer is always safe to call.
func startDebug(addr string, reg *telemetry.Registry, stderr io.Writer) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := obs.StartDebugServer(addr)
	if err != nil {
		return func() {}, err
	}
	srv.MountMetrics(reg)
	fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (expvar at /debug/vars, Prometheus at /metrics)\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// run is the testable driver body.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "profile" {
		return profile(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "vet" {
		return vet(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "trace" {
		return trace(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("msc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	conv := convFlags(fs)
	var (
		emit      = fs.String("emit", "stats", "artifact: graph|dot|automaton|autodot|mpl|go|stats")
		doRun     = fs.Bool("run", false, "execute the program instead of emitting an artifact")
		engine    = fs.String("engine", "simd", "execution engine: simd|mimd|interp")
		n         = fs.Int("n", 16, "machine width (number of PEs)")
		active    = fs.Int("active", 0, "PEs initially in main (0 = all; rest wait for spawn)")
		trace     = fs.Bool("trace", false, "trace meta-state execution (simd engine)")
		timeline  = fs.Bool("timeline", false, "per-PE occupancy timeline (simd engine)")
		maxSteps  = fs.Int("max-steps", 0, "engine step budget; non-terminating programs fail instead of hanging (0 = default)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
		cacheDir  = fs.String("cache", "", "artifact cache directory (empty = compile uncached; see docs/CACHE.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: msc [flags] file.mc")
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	conf := conv()
	conf.Metrics = telemetry.NewRegistry()
	if *cacheDir != "" {
		cc, err := msc.OpenCache(*cacheDir)
		if err != nil {
			// The cache accelerates; it never gates. Warn and compile.
			fmt.Fprintf(stderr, "msc: cache disabled: %v\n", err)
		} else {
			conf.Cache = cc
		}
	}
	closeDebug, err := startDebug(*pprofAddr, conf.Metrics, stderr)
	if err != nil {
		return err
	}
	defer closeDebug()
	c, err := msc.Compile(string(src), conf)
	if err != nil {
		return err
	}

	if *doRun {
		return execute(stdout, stderr, c, *engine, *n, *active, *maxSteps, *trace, *timeline)
	}

	switch *emit {
	case "graph":
		fmt.Fprint(stdout, c.Graph.String())
	case "dot":
		fmt.Fprint(stdout, c.DotStateGraph(fs.Arg(0)))
	case "automaton":
		fmt.Fprint(stdout, c.Automaton.String())
	case "autodot":
		fmt.Fprint(stdout, c.DotAutomaton(fs.Arg(0)))
	case "mpl":
		fmt.Fprint(stdout, c.MPL())
	case "go":
		src, err := c.EmitGo(*n)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, src)
	case "stats":
		stats(stdout, c)
	default:
		return fmt.Errorf("unknown -emit %q", *emit)
	}
	return nil
}

func stats(w io.Writer, c *msc.Compiled) {
	for _, d := range c.Degradations {
		fmt.Fprintf(w, "degraded:           %s (%s budget exceeded in %s)\n", d.Action, d.Resource, d.Phase)
	}
	fmt.Fprintf(w, "MIMD states:        %d\n", c.MIMDStates())
	fmt.Fprintf(w, "meta states:        %d\n", c.MetaStates())
	fmt.Fprintf(w, "transitions:        %d\n", c.Automaton.NumTransitions())
	fmt.Fprintf(w, "max meta width:     %d\n", c.Automaton.MaxWidth())
	fmt.Fprintf(w, "time splits:        %d (restarts %d)\n", c.Automaton.Splits, c.Automaton.Restarts)
	fmt.Fprintf(w, "words per PE:       %d\n", c.Program.Words)
	hashed, static := 0, 0
	for _, mc := range c.Program.Meta {
		if mc.Trans.Hash != nil {
			hashed++
		}
		static += mc.Cost()
	}
	fmt.Fprintf(w, "hashed dispatches:  %d\n", hashed)
	fmt.Fprintf(w, "static cycles:      %d\n", static)
	if s := c.Stats; s != nil {
		if s.CacheOutcome != "" {
			fmt.Fprintf(w, "cache:              %s\n", s.CacheOutcome)
			for _, e := range s.CacheErrors {
				fmt.Fprintf(w, "cache error:        %s\n", e)
			}
		}
		fmt.Fprintf(w, "tokens parsed:      %d\n", s.TokensParsed)
		fmt.Fprintf(w, "cfg blocks:         %d -> %d (simplify)\n", s.BlocksBeforeSimplify, s.BlocksAfterSimplify)
		fmt.Fprintf(w, "meta explored:      %d (merged %d, barrier-filtered %d, worklist peak %d)\n",
			s.MetaExplored, s.MetaMerged, s.AggregatesFiltered, s.WorklistHighWater)
		fmt.Fprintf(w, "CSI saved:          %d cycles, %d slots\n", s.CSISavedCycles, s.CSISlotsSaved)
		fmt.Fprintf(w, "hash search:        %d candidates tried, %d tables built\n",
			s.HashCandidatesTried, s.HashTablesBuilt)
		fmt.Fprintf(w, "dispatch entries:   %d\n", s.DispatchEntries)
		if s.OptRounds > 0 {
			fmt.Fprintf(w, "opt rewrites:       %d const folds, %d dead stores, %d branches pruned, %d copies propagated (%d rounds)\n",
				s.OptConstFolds, s.OptDeadStores, s.OptBranchesPruned, s.OptCopiesPropagated, s.OptRounds)
		}
		fmt.Fprintf(w, "vet diagnostics:    %d (%d errors, %d warnings)\n",
			s.VetDiagnostics, s.VetErrors, s.VetWarnings)
		if s.DegradeSteps > 0 || s.BudgetOverruns > 0 {
			fmt.Fprintf(w, "budget overruns:    %d (degrade steps %d)\n", s.BudgetOverruns, s.DegradeSteps)
		}
		for _, p := range s.PhaseWall {
			fmt.Fprintf(w, "phase %-13s %10.3fms\n", p.Name+":", float64(p.Wall)/1e6)
		}
	}
}

// profile implements the `msc profile` subcommand: run on the SIMD
// engine and report where the cycles went, per meta state.
func profile(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("msc profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	conv := convFlags(fs)
	var (
		n         = fs.Int("n", 16, "machine width (number of PEs)")
		active    = fs.Int("active", 0, "PEs initially in main (0 = all; rest wait for spawn)")
		maxSteps  = fs.Int("max-steps", 0, "engine step budget; non-terminating programs fail instead of hanging (0 = default)")
		top       = fs.Int("top", 0, "show only the hottest K meta states (0 = all)")
		dot       = fs.Bool("dot", false, "emit a Graphviz heatmap of the automaton instead of the table")
		folded    = fs.Bool("folded", false, "emit folded stacks (flamegraph.pl / speedscope input) instead of the table")
		period    = fs.Int64("sample-period", 1, "sampling period in cycles for -folded (1 = exact attribution)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: msc profile [flags] file.mc")
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	conf := conv()
	conf.Metrics = telemetry.NewRegistry()
	closeDebug, err := startDebug(*pprofAddr, conf.Metrics, stderr)
	if err != nil {
		return err
	}
	defer closeDebug()
	c, err := msc.Compile(string(src), conf)
	if err != nil {
		return err
	}
	rc := msc.RunConfig{N: *n, InitialActive: *active, MaxSteps: *maxSteps}
	var prof *telemetry.Profiler
	if *folded {
		prof = telemetry.NewProfiler(*period)
		rc.Profiler = prof
	}
	res, err := c.RunSIMD(rc)
	if err != nil {
		return err
	}

	if *folded {
		return prof.WriteFolded(stdout, "simd")
	}
	if *dot {
		fmt.Fprint(stdout, c.DotProfile(fs.Arg(0), res))
		return nil
	}
	return writeProfile(stdout, c, res, *top)
}

// writeProfile prints the hot-spot table, hottest meta state first. The
// cycle column is exact: every cycle of the run is attributed to exactly
// one meta state, so the total row equals the run's Time.
func writeProfile(w io.Writer, c *msc.Compiled, res *simd.Result, top int) error {
	order := make([]int, len(res.MetaStats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &res.MetaStats[order[a]], &res.MetaStats[order[b]]
		if sa.Cycles != sb.Cycles {
			return sa.Cycles > sb.Cycles
		}
		return order[a] < order[b]
	})

	var total int64
	for i := range res.MetaStats {
		total += res.MetaStats[i].Cycles
	}
	if total != res.Time {
		return fmt.Errorf("profile: attributed cycles %d != run time %d (attribution bug)", total, res.Time)
	}

	fmt.Fprintf(w, "%d meta-state executions, %d cycles total\n\n", res.MetaExecs, res.Time)
	fmt.Fprintf(w, "%-7s %9s %11s %7s %7s %10s %10s  %s\n",
		"state", "visits", "cycles", "time%", "cum%", "mean-live", "mean-enab", "set")
	var cum int64
	shown := 0
	for _, id := range order {
		st := &res.MetaStats[id]
		if st.Visits == 0 && st.Cycles == 0 {
			continue
		}
		if top > 0 && shown >= top {
			break
		}
		cum += st.Cycles
		pct := func(v int64) float64 {
			if res.Time == 0 {
				return 0
			}
			return 100 * float64(v) / float64(res.Time)
		}
		fmt.Fprintf(w, "ms%-5d %9d %11d %6.1f%% %6.1f%% %10.2f %10.2f  %s\n",
			id, st.Visits, st.Cycles, pct(st.Cycles), pct(cum),
			st.MeanLive(), st.MeanEnabled(), c.Automaton.States[id].Set)
		shown++
	}
	fmt.Fprintf(w, "%-7s %9s %11d %6.1f%%\n", "total", "", total, 100.0)
	return nil
}

func execute(stdout, stderr io.Writer, c *msc.Compiled, engine string, n, active, maxSteps int, trace, timeline bool) error {
	rc := msc.RunConfig{N: n, InitialActive: active, MaxSteps: maxSteps}
	if trace || timeline {
		ts := &obs.TextSink{}
		if trace {
			ts.Trace = stderr
		}
		if timeline {
			ts.Timeline = stderr
		}
		rc.Sink = ts
	}
	switch engine {
	case "simd":
		res, err := c.RunSIMD(rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "engine:          meta-state SIMD\n")
		fmt.Fprintf(stdout, "cycles:          %d (body %d, dispatch %d)\n",
			res.Time, res.BodyCycles, res.DispatchCycles)
		fmt.Fprintf(stdout, "meta states run: %d\n", res.MetaExecs)
		fmt.Fprintf(stdout, "utilization:     %.1f%% (wait fraction %.1f%%)\n",
			res.Utilization(n)*100, res.WaitFraction()*100)
		dumpVars(stdout, c, res.Mem, n)
	case "mimd":
		res, err := c.RunMIMD(rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "engine:          ideal MIMD reference\n")
		fmt.Fprintf(stdout, "cycles:          %d (useful %d, barriers %d)\n", res.Time, res.Useful, res.Barriers)
		dumpVars(stdout, c, res.Mem, n)
	case "interp":
		res, err := c.RunInterp(rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "engine:          MIMD interpreter on SIMD (§1.1 baseline)\n")
		fmt.Fprintf(stdout, "cycles:          %d (overhead %d)\n", res.Time, res.Overhead)
		fmt.Fprintf(stdout, "rounds:          %d (%.2f instruction types/round)\n",
			res.Rounds, float64(res.TypesPerRound)/float64(res.Rounds))
		fmt.Fprintf(stdout, "program memory:  %d words per PE\n", res.ProgWordsPerPE)
		dumpVars(stdout, c, res.Mem, n)
	default:
		return fmt.Errorf("unknown -engine %q", engine)
	}
	return nil
}

// dumpVars prints every source-level global across the machine.
func dumpVars(w io.Writer, c *msc.Compiled, mem [][]ir.Word, n int) {
	names := make([]string, 0, len(c.Graph.VarSlot))
	for name := range c.Graph.VarSlot {
		names = append(names, name)
	}
	sort.Strings(names)
	show := n
	if show > 16 {
		show = 16
	}
	for _, name := range names {
		slot := c.Graph.VarSlot[name]
		fmt.Fprintf(w, "%-12s", name+":")
		for pe := 0; pe < show; pe++ {
			fmt.Fprintf(w, " %6d", mem[pe][slot])
		}
		if show < n {
			fmt.Fprintf(w, " ... (%d more)", n-show)
		}
		fmt.Fprintln(w)
	}
}
