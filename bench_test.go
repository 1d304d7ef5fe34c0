// Benchmarks: one per reproduced paper artifact (see EXPERIMENTS.md and
// DESIGN.md's experiments index). Each reports the relevant shape metric
// via b.ReportMetric in addition to wall-clock cost, so
// `go test -bench=. -benchmem` regenerates the evaluation's headline
// numbers.
package msc_test

import (
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/hashgen"
	metastate "msc/internal/msc"
	"msc/internal/progen"
	"msc/internal/telemetry"
)

// BenchmarkF1CFGConstruction: Figure 1 — building the 4-state MIMD
// graph for Listing 1.
func BenchmarkF1CFGConstruction(b *testing.B) {
	b.ReportAllocs()
	var states int
	for i := 0; i < b.N; i++ {
		c := msc.MustCompile(harness.Listing4, msc.Config{})
		states = c.MIMDStates()
	}
	b.ReportMetric(float64(states), "MIMDstates")
}

// BenchmarkF2BaseConversion: Figure 2 — the 8-meta-state base
// conversion of Listing 1.
func BenchmarkF2BaseConversion(b *testing.B) {
	c := msc.MustCompile(harness.Listing4, msc.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		a := metastate.MustConvert(c.Graph, metastate.DefaultOptions(false))
		states = a.NumStates()
	}
	b.ReportMetric(float64(states), "metastates")
}

// BenchmarkF4TimeSplitting: Figures 3-4 — converting the imbalanced
// branch with the §2.4 splitting heuristic (includes its restarts).
func BenchmarkF4TimeSplitting(b *testing.B) {
	src := harness.Imbalance(40)
	b.ReportAllocs()
	var splits int
	for i := 0; i < b.N; i++ {
		c := msc.MustCompile(src, msc.Config{TimeSplit: true})
		splits = c.Automaton.Splits
	}
	b.ReportMetric(float64(splits), "splits")
}

// BenchmarkF5Compression: Figure 5 — the 2-meta-state compressed
// conversion of Listing 1.
func BenchmarkF5Compression(b *testing.B) {
	c := msc.MustCompile(harness.Listing4, msc.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		a := metastate.MustConvert(c.Graph, metastate.DefaultOptions(true))
		states = a.NumStates()
	}
	b.ReportMetric(float64(states), "metastates")
}

// BenchmarkF6Barrier: Figure 6 — the 5-meta-state barrier conversion of
// Listing 3.
func BenchmarkF6Barrier(b *testing.B) {
	c := msc.MustCompile(harness.Listing3, msc.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		a := metastate.MustConvert(c.Graph, metastate.DefaultOptions(false))
		states = a.NumStates()
	}
	b.ReportMetric(float64(states), "metastates")
}

// BenchmarkL5CodeGeneration: Listing 5 — full SIMD coding of Listing 4
// (CSI + hashed multiway branches + MPL emission).
func BenchmarkL5CodeGeneration(b *testing.B) {
	b.ReportAllocs()
	var chars int
	for i := 0; i < b.N; i++ {
		c := msc.MustCompile(harness.Listing4, msc.Config{CSI: true, Hash: true})
		chars = len(c.MPL())
	}
	b.ReportMetric(float64(chars), "MPLbytes")
}

// BenchmarkE1StateExplosion: §1.2 — base conversion of 5 sequential
// divergent loops (4^5 = 1024 meta states) vs the compressed automaton.
func BenchmarkE1StateExplosion(b *testing.B) {
	src := harness.SeqLoops(5, false)
	b.Run("base", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			states = msc.MustCompile(src, msc.Config{}).MetaStates()
		}
		b.ReportMetric(float64(states), "metastates")
	})
	b.Run("compressed", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			states = msc.MustCompile(src, msc.Config{Compress: true}).MetaStates()
		}
		b.ReportMetric(float64(states), "metastates")
	})
	b.Run("barriers", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			states = msc.MustCompile(harness.SeqLoops(5, true), msc.Config{}).MetaStates()
		}
		b.ReportMetric(float64(states), "metastates")
	})
}

// BenchmarkE2Utilization: §2.4 — SIMD execution of the imbalanced
// branch with and without time splitting; the metric is the §2.4 wait
// fraction (live-but-disabled PE cycles).
func BenchmarkE2Utilization(b *testing.B) {
	src := harness.Imbalance(20)
	for _, mode := range []struct {
		name  string
		split bool
	}{{"nosplit", false}, {"timesplit", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := msc.MustCompile(src, msc.Config{TimeSplit: mode.split, CSI: true})
			b.ResetTimer()
			var wait float64
			for i := 0; i < b.N; i++ {
				res, err := c.RunSIMD(msc.RunConfig{N: 16})
				if err != nil {
					b.Fatal(err)
				}
				wait = res.WaitFraction()
			}
			b.ReportMetric(wait*100, "wait%")
		})
	}
}

// BenchmarkE3InterpVsMSC: §1.1 vs §1.2 — simulated machine cycles for
// the interpreter baseline and the converted program on the collatz
// workload (the metric is their simulated-cycle count).
func BenchmarkE3InterpVsMSC(b *testing.B) {
	c := msc.MustCompile(harness.Collatz, msc.DefaultConfig())
	rc := msc.RunConfig{N: 16}
	b.Run("interp", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := c.RunInterp(rc)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Time
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
	b.Run("msc", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := c.RunSIMD(rc)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Time
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
	b.Run("idealmimd", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := c.RunMIMD(rc)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Time
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
}

// BenchmarkE4HashDispatch: §3.2.3 — finding a customized hash for a
// five-way meta-state switch and dispatching through it, vs the linear
// compare chain cost model.
func BenchmarkE4HashDispatch(b *testing.B) {
	keys := []uint64{1<<2 | 1<<6, 1 << 9, 1<<6 | 1<<9, 1<<2 | 1<<9, 1<<2 | 1<<6 | 1<<9}
	b.Run("find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hashgen.Find(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	h, err := hashgen.Find(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dispatch", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += h.Index(keys[i%len(keys)])
		}
		_ = sink
		b.ReportMetric(float64(h.EvalCost), "hashcycles")
		b.ReportMetric(float64(hashgen.LinearDispatchCost(len(keys))), "chaincycles")
	})
}

// BenchmarkE5CSI: §3.1 — SIMD cycles with and without common
// subexpression induction on the divergent workload.
func BenchmarkE5CSI(b *testing.B) {
	for _, mode := range []struct {
		name string
		csi  bool
	}{{"serial", false}, {"csi", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := msc.MustCompile(harness.Divergent, msc.Config{Hash: true, CSI: mode.csi})
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := c.RunSIMD(msc.RunConfig{N: 16})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Time
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkE6Spawn: §3.2.5 — the task-farm workload with spawn/halt
// over the free-PE pool.
func BenchmarkE6Spawn(b *testing.B) {
	c := msc.MustCompile(harness.Farm, msc.DefaultConfig())
	b.ResetTimer()
	var metaExecs int64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSIMD(msc.RunConfig{N: 8, InitialActive: 1})
		if err != nil {
			b.Fatal(err)
		}
		metaExecs = res.MetaExecs
	}
	b.ReportMetric(float64(metaExecs), "metaexecs")
}

// BenchmarkE7BarrierCost: §5 — explicit MIMD barrier cycles vs the
// converted program's zero-cost implicit synchronization.
func BenchmarkE7BarrierCost(b *testing.B) {
	c := msc.MustCompile(harness.BarrierPhases(6), msc.DefaultConfig())
	b.Run("mimd", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := c.RunMIMD(msc.RunConfig{N: 16})
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Time
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
	b.Run("msc", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			res, err := c.RunSIMD(msc.RunConfig{N: 16})
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Time
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
}

// BenchmarkPipeline measures the full compiler pipeline end to end on a
// realistic workload.
func BenchmarkPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msc.Compile(harness.Stencil, msc.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (design choices; see DESIGN.md) -------------------

// BenchmarkA1CallTreatment: §2.2 — shared-copy return tokens vs per-site
// in-line expansion on a call-heavy workload.
func BenchmarkA1CallTreatment(b *testing.B) {
	for _, mode := range []struct {
		name   string
		expand bool
	}{{"sharedcopy", false}, {"expand", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := msc.MustCompile(harness.GCD, msc.Config{Compress: true, CSI: true, ExpandCalls: mode.expand})
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := c.RunSIMD(msc.RunConfig{N: 16})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Time
			}
			b.ReportMetric(float64(cycles), "simcycles")
			b.ReportMetric(float64(c.MIMDStates()), "MIMDstates")
		})
	}
}

// BenchmarkA2BarrierModes: §2.6 — paper filtering vs exact occupancy
// conversion cost and automaton size.
func BenchmarkA2BarrierModes(b *testing.B) {
	src := harness.BarrierPhases(4)
	for _, mode := range []struct {
		name  string
		exact bool
	}{{"filtering", false}, {"exact", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				c := msc.MustCompile(src, msc.Config{BarrierExact: mode.exact})
				states = c.MetaStates()
			}
			b.ReportMetric(float64(states), "metastates")
		})
	}
}

// BenchmarkA3SubsetMerge: §2.5 — compressed conversion with and without
// folding subset states into supersets.
func BenchmarkA3SubsetMerge(b *testing.B) {
	g := msc.MustCompile(harness.SeqLoops(5, false), msc.Config{}).Graph
	for _, mode := range []struct {
		name  string
		merge bool
	}{{"merge", true}, {"nomerge", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := metastate.DefaultOptions(true)
			opt.MergeSubsets = mode.merge
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				a := metastate.MustConvert(g, opt)
				states = a.NumStates()
			}
			b.ReportMetric(float64(states), "metastates")
		})
	}
}

// benchRandGraph compiles a randomized progen program (barriers,
// floats, calls, depth-4 nesting) as a conversion stressor.
func benchRandGraph(b *testing.B, seed int64) *msc.Compiled {
	b.Helper()
	src := progen.Source(progen.Params{
		Seed: seed, Barriers: true, Floats: true, Calls: true,
		MaxDepth: 4, MaxStmts: 8, Vars: 6, LoopTrip: 4,
	})
	return msc.MustCompile(src, msc.DefaultConfig())
}

// BenchmarkP1ConvertLarge: the conversion core on a large base-mode
// workload (6 sequential divergent loops, ~1.5k meta states), sequential
// vs worker pool. The parallel variant must produce the identical
// automaton (TestParallelDeterministicCorpus), so this measures pure
// wall-clock of the concurrent frontier.
func BenchmarkP1ConvertLarge(b *testing.B) {
	g := msc.MustCompile(harness.SeqLoops(6, false), msc.Config{}).Graph
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := metastate.DefaultOptions(false)
			opt.Workers = mode.workers
			b.ReportAllocs()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				a := metastate.MustConvert(g, opt)
				states = a.NumStates()
			}
			b.ReportMetric(float64(states), "metastates")
		})
	}
}

// BenchmarkP2ConvertToGuard: throughput into the §1.2 explosion guard —
// a random program whose base conversion exceeds MaxStates, so the
// benchmark measures how fast the converter fills 16k states and stops.
func BenchmarkP2ConvertToGuard(b *testing.B) {
	g := benchRandGraph(b, 9).Graph
	opt := metastate.DefaultOptions(false)
	opt.MaxStates = 1 << 14
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metastate.Convert(g, opt); err == nil {
			b.Fatal("expected explosion guard")
		}
	}
	b.ReportMetric(float64(opt.MaxStates), "metastates")
}

// BenchmarkP3ConvertRandomCompressed: compressed conversion plus subset
// merging on a 379-block random program.
func BenchmarkP3ConvertRandomCompressed(b *testing.B) {
	g := benchRandGraph(b, 19).Graph
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		a := metastate.MustConvert(g, metastate.DefaultOptions(true))
		states = a.NumStates()
	}
	b.ReportMetric(float64(states), "metastates")
}

// BenchmarkP4TimeSplitLarge: §2.4 warm restarts — a 60-multiply
// imbalance forces a long split/restart chain, exercising interner
// reuse, meta-state recycling, and contribution-memo invalidation.
func BenchmarkP4TimeSplitLarge(b *testing.B) {
	src := harness.Imbalance(60)
	b.ReportAllocs()
	var splits int
	for i := 0; i < b.N; i++ {
		c := msc.MustCompile(src, msc.Config{TimeSplit: true})
		splits = c.Automaton.Splits
	}
	b.ReportMetric(float64(splits), "splits")
}

// ---- Telemetry overhead (see docs/OBSERVABILITY.md) ------------------------

// BenchmarkTelemetryDisabled is the baseline the disabled-path claim is
// measured against: a full compile + SIMD run with no tracer, no
// profiler, and no metrics attached. Every telemetry hook on this path
// must reduce to a nil pointer compare.
func BenchmarkTelemetryDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := msc.Compile(harness.Divergent, msc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunSIMD(msc.RunConfig{N: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryEnabled is the same workload with the full stack
// attached — tracer, metrics registry, and exact (period-1) profiler —
// bounding what "everything on" costs relative to the baseline above.
func BenchmarkTelemetryEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := telemetry.NewTracer()
		reg := telemetry.NewRegistry()
		conf := msc.DefaultConfig()
		conf.Tracer = tr
		conf.Metrics = reg
		c, err := msc.Compile(harness.Divergent, conf)
		if err != nil {
			b.Fatal(err)
		}
		prof := telemetry.NewProfiler(1)
		if _, err := c.RunSIMD(msc.RunConfig{
			N: 16, Tracer: tr, Profiler: prof, Metrics: reg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnHeavy: the free-PE cursor's regression guard. A
// spawn-heavy generated program repeatedly claims and releases PEs at
// width 65536 from a single coordinator; the old spawn path re-scanned
// the idle set from PE 0 on every claim (O(N) each), the cursor makes
// the whole churn O(words) worst case and O(1) amortized.
func BenchmarkSpawnHeavy(b *testing.B) {
	src := progen.Source(progen.Params{Seed: 41, Spawns: 8, MaxDepth: 2, MaxStmts: 5})
	c := msc.MustCompile(src, msc.DefaultConfig())
	b.ResetTimer()
	var metaExecs int64
	for i := 0; i < b.N; i++ {
		res, err := c.RunSIMD(msc.RunConfig{N: 65536, InitialActive: 1})
		if err != nil {
			b.Fatal(err)
		}
		metaExecs = res.MetaExecs
	}
	b.ReportMetric(float64(metaExecs), "metaexecs")
}
