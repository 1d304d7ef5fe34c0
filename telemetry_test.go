package msc_test

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/obs"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

// TestCompileTraceSpans compiles and runs with a tracer attached and
// checks the acceptance shape of the span tree: a compile root, one
// phase.* child per pipeline phase, convert.generation spans under
// phase.convert, and a run.simd span chained to the compile span.
func TestCompileTraceSpans(t *testing.T) {
	tr := telemetry.NewTracer()
	c, err := msc.Compile(harness.Divergent, msc.Config{
		Compress: true, CSI: true, Hash: true, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[telemetry.SpanID]*telemetry.Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	var compile *telemetry.Span
	for _, s := range tr.Spans() {
		if s.Name == "compile" {
			compile = s
		}
	}
	if compile == nil {
		t.Fatal("no compile span recorded")
	}

	phases := map[string]bool{}
	var convertSpan *telemetry.Span
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Name, "phase.") {
			if s.Parent != compile.ID {
				t.Errorf("%s parented to %d, want compile span %d", s.Name, s.Parent, compile.ID)
			}
			phases[strings.TrimPrefix(s.Name, "phase.")] = true
			if s.Name == "phase.convert" {
				convertSpan = s
			}
		}
	}
	for _, want := range []string{obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseLower,
		obs.PhaseSimplify, obs.PhaseConvert, obs.PhaseCheck, obs.PhaseVet, obs.PhaseCodegen} {
		if !phases[want] {
			t.Errorf("missing phase span %q (got %v)", want, phases)
		}
	}

	gens := 0
	for _, s := range tr.Spans() {
		if s.Name == "convert.generation" {
			gens++
			if convertSpan == nil || s.Parent != convertSpan.ID {
				t.Errorf("generation span parent = %d, want phase.convert", s.Parent)
			}
		}
	}
	if gens == 0 {
		t.Error("no convert.generation spans")
	}

	// Run chained under the compile span.
	if _, err := c.RunSIMD(msc.RunConfig{N: 4, Tracer: tr, TraceParent: compile.ID}); err != nil {
		t.Fatal(err)
	}
	var run *telemetry.Span
	for _, s := range tr.Spans() {
		if s.Name == "run.simd" {
			run = s
		}
	}
	if run == nil || run.Parent != compile.ID {
		t.Fatalf("run.simd span missing or not chained to compile: %+v", run)
	}

	// Both exports must produce loadable output for this real trace.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("chrome trace missing traceEvents array")
	}
}

// TestConvertWorkerSpans forces the parallel conversion path and checks
// worker spans land under their generation with distinct lanes.
func TestConvertWorkerSpans(t *testing.T) {
	tr := telemetry.NewTracer()
	_, err := msc.Compile(harness.Primes, msc.Config{
		Compress: true, ConvertWorkers: 4, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[telemetry.SpanID]*telemetry.Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	workers := 0
	for _, s := range tr.Spans() {
		if s.Name != "convert.worker" {
			continue
		}
		workers++
		if p := byID[s.Parent]; p == nil || p.Name != "convert.generation" {
			t.Errorf("worker span parent = %+v, want convert.generation", p)
		}
		if s.Lane < 100 {
			t.Errorf("worker span lane = %d, want >= 100", s.Lane)
		}
	}
	// The parallel path only engages on frontiers >= the internal
	// threshold; Primes generates hundreds of states, so at least one
	// generation must have fanned out.
	if workers == 0 {
		t.Skip("no generation reached the parallel threshold on this machine")
	}
}

// TestProfilerAttribution runs every engine under the exact profiler
// (period 1) and checks the acceptance bar: at least 95% of SIMD engine
// cycles attribute to source blocks, and the profiler's totals agree
// with the engine's own cycle accounting.
func TestProfilerAttribution(t *testing.T) {
	c, err := msc.Compile(harness.Divergent, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	prof := telemetry.NewProfiler(1)
	res, err := c.RunSIMD(msc.RunConfig{N: 8, Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total() != res.Time {
		t.Fatalf("profiler total %d != engine cycles %d", prof.Total(), res.Time)
	}
	if frac := prof.AttributedFraction(); frac < 0.95 {
		t.Fatalf("SIMD attributed fraction = %.3f, want >= 0.95", frac)
	}
	var buf bytes.Buffer
	if err := prof.WriteFolded(&buf, "simd"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simd;ms") {
		t.Fatalf("folded output has no meta-state frames:\n%s", buf.String())
	}

	mprof := telemetry.NewProfiler(1)
	mres, err := c.RunMIMD(msc.RunConfig{N: 8, Profiler: mprof})
	if err != nil {
		t.Fatal(err)
	}
	if mprof.Total() != mres.Useful {
		t.Fatalf("mimd profiler total %d != useful cycles %d", mprof.Total(), mres.Useful)
	}
	if frac := mprof.AttributedFraction(); frac != 1.0 {
		t.Fatalf("mimd attributed fraction = %.3f, want 1.0 (every cycle is a block)", frac)
	}

	iprof := telemetry.NewProfiler(1)
	ires, err := c.RunInterp(msc.RunConfig{N: 8, Profiler: iprof})
	if err != nil {
		t.Fatal(err)
	}
	if iprof.Total() != ires.Time {
		t.Fatalf("interp profiler total %d != engine cycles %d", iprof.Total(), ires.Time)
	}
}

// TestCSISlotPositions checks that a CSI-merged exec slot carries the
// source position of the instruction it came from in its
// representative member, Slot.Block: each member's projection of the
// body is its own code, so a per-block cursor finds that instruction.
func TestCSISlotPositions(t *testing.T) {
	for _, path := range corpusFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := msc.Compile(string(src), msc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		withPos := 0
		for _, m := range c.Program.Meta {
			next := map[int]int{}
			for i, sl := range m.Slots {
				if sl.Kind != simd.SlotExec {
					continue
				}
				code := c.Automaton.G.Block(sl.Block).Code
				if k := next[sl.Block]; k >= len(code) || sl.Pos != code[k].Pos || sl.Instr != code[k].Canon() {
					t.Fatalf("%s ms%d slot %d (%v at %v, block %d): not instruction %d of the block",
						path, m.ID, i, sl.Instr, sl.Pos, sl.Block, k)
				}
				sl.Guard.ForEach(func(id int) { next[id]++ })
				if sl.Pos.IsValid() {
					withPos++
				}
			}
		}
		if withPos == 0 {
			t.Errorf("%s: no exec slot carries a position", path)
		}
	}
}

// TestCompileHistograms checks the registry-side telemetry: compiling
// lands latency and meta-state observations, running lands engine
// cycles, and the whole registry serves as valid Prometheus text. The
// registry is the compile's one recording: it holds exactly the phase
// walls and counters Compiled.Stats reports, and a second compile adds
// to the Add counters, replaces the Set ones and raises the Max one.
func TestCompileHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := msc.Compile(harness.Stencil, msc.Config{Compress: true, ConvertWorkers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSIMD(msc.RunConfig{N: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"compile_latency_ns_bucket",
		"compile_meta_states_count 1",
		`engine_cycles_count{engine="simd"} 1`,
		"convert_meta_states ",
		"phase_convert ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if err := telemetry.ValidPromLine(line); err != nil {
			t.Fatalf("invalid exposition line: %v", err)
		}
	}

	value := func(name string) int64 { return reg.Counter(name, "").Value() }
	first := c.Stats
	for _, p := range first.PhaseWall {
		if got := value(obs.PhaseMetricPrefix + p.Name); got != int64(p.Wall) {
			t.Errorf("%s%s = %d ns, Stats.PhaseWall says %d", obs.PhaseMetricPrefix, p.Name, got, int64(p.Wall))
		}
	}
	for name, field := range statsFields {
		if got, want := value(name), field(first); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}

	c2, err := msc.Compile(harness.Primes, msc.Config{Compress: true, ConvertWorkers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	second := c2.Stats
	if first.MetaStates <= second.MetaStates || first.WorklistHighWater <= second.WorklistHighWater {
		t.Fatalf("the second program must have fewer meta states and a lower worklist peak: %+v vs %+v", first, second)
	}
	lastValue := map[string]int64{
		obs.CounterMetaStates:   second.MetaStates,
		obs.CounterMIMDStates:   second.MIMDStates,
		obs.CounterWorklistHigh: first.WorklistHighWater,
	}
	for name, field := range statsFields {
		want, ok := lastValue[name]
		if !ok {
			want = field(first) + field(second)
		}
		if got := value(name); got != want {
			t.Errorf("after two compiles %s = %d, want %d", name, got, want)
		}
	}
	if got := value(obs.CounterConvertWorkers); got != 2 {
		t.Errorf("after two compiles %s = %d, want 2", obs.CounterConvertWorkers, got)
	}
}

// statsFields maps each well-known counter to its CompileStats field.
var statsFields = map[string]func(*msc.CompileStats) int64{
	obs.CounterTokens:            func(s *msc.CompileStats) int64 { return s.TokensParsed },
	obs.CounterBlocksBefore:      func(s *msc.CompileStats) int64 { return s.BlocksBeforeSimplify },
	obs.CounterBlocksAfter:       func(s *msc.CompileStats) int64 { return s.BlocksAfterSimplify },
	obs.CounterMetaStates:        func(s *msc.CompileStats) int64 { return s.MetaStates },
	obs.CounterMIMDStates:        func(s *msc.CompileStats) int64 { return s.MIMDStates },
	obs.CounterMetaExplored:      func(s *msc.CompileStats) int64 { return s.MetaExplored },
	obs.CounterMetaMerged:        func(s *msc.CompileStats) int64 { return s.MetaMerged },
	obs.CounterMetaFiltered:      func(s *msc.CompileStats) int64 { return s.AggregatesFiltered },
	obs.CounterWorklistHigh:      func(s *msc.CompileStats) int64 { return s.WorklistHighWater },
	obs.CounterSplits:            func(s *msc.CompileStats) int64 { return s.TimeSplits },
	obs.CounterRestarts:          func(s *msc.CompileStats) int64 { return s.Restarts },
	obs.CounterCSISavedCycles:    func(s *msc.CompileStats) int64 { return s.CSISavedCycles },
	obs.CounterCSISlotsSaved:     func(s *msc.CompileStats) int64 { return s.CSISlotsSaved },
	obs.CounterHashTried:         func(s *msc.CompileStats) int64 { return s.HashCandidatesTried },
	obs.CounterHashTables:        func(s *msc.CompileStats) int64 { return s.HashTablesBuilt },
	obs.CounterDispatchEntries:   func(s *msc.CompileStats) int64 { return s.DispatchEntries },
	obs.CounterOptConstFolds:     func(s *msc.CompileStats) int64 { return s.OptConstFolds },
	obs.CounterOptDeadStores:     func(s *msc.CompileStats) int64 { return s.OptDeadStores },
	obs.CounterOptBranchesPruned: func(s *msc.CompileStats) int64 { return s.OptBranchesPruned },
	obs.CounterOptCopiesProp:     func(s *msc.CompileStats) int64 { return s.OptCopiesPropagated },
	obs.CounterOptRounds:         func(s *msc.CompileStats) int64 { return s.OptRounds },
	obs.CounterVetDiags:          func(s *msc.CompileStats) int64 { return s.VetDiagnostics },
	obs.CounterVetErrors:         func(s *msc.CompileStats) int64 { return s.VetErrors },
	obs.CounterVetWarnings:       func(s *msc.CompileStats) int64 { return s.VetWarnings },
	obs.CounterDegradeSteps:      func(s *msc.CompileStats) int64 { return s.DegradeSteps },
}
