package msc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"msc"
	"msc/internal/faultinject"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// allPhases is the pipeline phase sequence the fault matrix sweeps.
var allPhases = []string{
	obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseLower, obs.PhaseSimplify,
	obs.PhaseConvert, obs.PhaseCheck, obs.PhaseVet, obs.PhaseCodegen,
}

func readSource(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestStepLimitAllEngines is the headline acceptance property: a
// committed non-terminating program must come back from every engine as
// a typed *StepLimitError — no hang, no panic, no leaked goroutine.
func TestStepLimitAllEngines(t *testing.T) {
	src := readSource(t, "testdata/robust/nonterminating.mc")
	c, err := msc.Compile(src, msc.Config{Compress: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	leak := faultinject.LeakCheck()
	rc := msc.RunConfig{N: 4, MaxSteps: 5000}

	runs := []struct {
		engine string
		run    func() error
	}{
		{"simd", func() error { _, err := c.RunSIMD(rc); return err }},
		{"mimd", func() error { _, err := c.RunMIMD(rc); return err }},
		{"interp", func() error { _, err := c.RunInterp(rc); return err }},
	}
	for _, r := range runs {
		err := r.run()
		var se *msc.StepLimitError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want *StepLimitError, got %v", r.engine, err)
		}
		if se.Engine != r.engine {
			t.Errorf("%s: error attributes itself to engine %q", r.engine, se.Engine)
		}
		if se.Limit != int64(rc.MaxSteps) {
			t.Errorf("%s: limit %d, want %d", r.engine, se.Limit, rc.MaxSteps)
		}
		// The message must point at the static alternative and the knob.
		for _, want := range []string{"non-terminating", "msc vet", "MaxSteps"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", r.engine, err, want)
			}
		}
	}
	if lerr := leak(); lerr != nil {
		t.Fatal(lerr)
	}
}

// TestFaultMatrixAllPhases injects a panic and a budget exhaustion into
// every pipeline phase and requires a typed error attributing itself to
// exactly that phase.
func TestFaultMatrixAllPhases(t *testing.T) {
	src := readSource(t, "testdata/robust/barrierstorm.mc")
	for _, phase := range allPhases {
		for _, fault := range []faultinject.Fault{faultinject.PanicAtPhase, faultinject.BudgetAtPhase} {
			t.Run(phase+"/"+fault.String(), func(t *testing.T) {
				deactivate := faultinject.Activate(&faultinject.Plan{Phase: phase, Fault: fault})
				defer deactivate()
				_, err := msc.Compile(src, msc.Config{Compress: true, CSI: true, Hash: true})
				if err == nil {
					t.Fatalf("fault at %s did not surface", phase)
				}
				switch fault {
				case faultinject.PanicAtPhase:
					var ie *msc.InternalError
					if !errors.As(err, &ie) {
						t.Fatalf("want *InternalError, got %v", err)
					}
					if ie.Phase != phase {
						t.Fatalf("panic attributed to %q, want %q", ie.Phase, phase)
					}
					if len(ie.Stack) == 0 {
						t.Fatal("contained panic carries no stack")
					}
				case faultinject.BudgetAtPhase:
					var be *msc.BudgetError
					if !errors.As(err, &be) {
						t.Fatalf("want *BudgetError, got %v", err)
					}
					if be.Phase != phase {
						t.Fatalf("budget overrun attributed to %q, want %q", be.Phase, phase)
					}
				}
			})
		}
	}
}

// TestFaultMatrixSeeded sweeps seed-derived plans: whatever fault the
// seed picks, the pipeline returns a typed error with correct phase
// attribution — or completes, for faults that cannot land (e.g. a
// cancellation point past the automaton size or a tolerable slowdown).
func TestFaultMatrixSeeded(t *testing.T) {
	src := readSource(t, "testdata/vet/barriers.mc")
	for seed := int64(1); seed <= 24; seed++ {
		plan := faultinject.FromSeed(seed, allPhases)
		ctx, cancel := context.WithCancel(context.Background())
		plan.Cancel = cancel
		deactivate := faultinject.Activate(plan)
		_, err := msc.CompileContext(ctx, src, msc.Config{})
		deactivate()
		cancel()

		switch plan.Fault {
		case faultinject.PanicAtPhase:
			var ie *msc.InternalError
			if !errors.As(err, &ie) || ie.Phase != plan.Phase {
				t.Fatalf("seed %d (%v at %s): got %v", seed, plan.Fault, plan.Phase, err)
			}
		case faultinject.BudgetAtPhase:
			var be *msc.BudgetError
			if !errors.As(err, &be) || be.Phase != plan.Phase {
				t.Fatalf("seed %d (%v at %s): got %v", seed, plan.Fault, plan.Phase, err)
			}
		case faultinject.CancelAfterStates:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d (cancel after %d states): got %v", seed, plan.States, err)
			}
		case faultinject.SlowPhase:
			if err != nil {
				t.Fatalf("seed %d (slow %s): got %v", seed, plan.Phase, err)
			}
		}
	}
}

// TestCompilePreCanceledContext requires CompileContext to fail fast on
// an already-canceled context, before any phase runs.
func TestCompilePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := msc.CompileContext(ctx, readSource(t, "testdata/vet/barriers.mc"), msc.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCancelDuringCompile cancels mid-conversion through the public
// API and requires context.Canceled with no leaked workers.
func TestCancelDuringCompile(t *testing.T) {
	src := readSource(t, "testdata/vet/barriers.mc")
	leak := faultinject.LeakCheck()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deactivate := faultinject.Activate(&faultinject.Plan{
		Fault:  faultinject.CancelAfterStates,
		States: 3,
		Cancel: cancel,
	})
	_, err := msc.CompileContext(ctx, src, msc.Config{})
	deactivate()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if lerr := leak(); lerr != nil {
		t.Fatal(lerr)
	}
}

// TestBudgetMaxStates exercises the meta-state budget end to end
// through Limits (which overrides Config.MaxStates).
func TestBudgetMaxStates(t *testing.T) {
	src := readSource(t, "testdata/vet/barriers.mc") // 28 uncompressed meta states
	_, err := msc.Compile(src, msc.Config{Limits: msc.Limits{MaxStates: 4}})
	var be *msc.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Phase != obs.PhaseConvert || be.Resource != "meta_states" || be.Limit != 4 {
		t.Fatalf("wrong attribution: %+v", be)
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("budget error %q should say exceeded", err)
	}
}

// TestBudgetMaxMemBytes exercises the approximate-memory budget: one
// byte is always exceeded by the first interned meta state.
func TestBudgetMaxMemBytes(t *testing.T) {
	src := readSource(t, "testdata/vet/barriers.mc")
	_, err := msc.Compile(src, msc.Config{Limits: msc.Limits{MaxMemBytes: 1}})
	var be *msc.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Phase != obs.PhaseConvert || be.Resource != "mem_bytes" {
		t.Fatalf("wrong attribution: %+v", be)
	}
}

// TestBudgetWallClock arms a slow-phase fault against a short deadline
// and requires a wall_clock budget error, not a bare context error.
func TestBudgetWallClock(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.SlowPhase,
		Delay: 300 * time.Millisecond,
	})
	defer deactivate()
	src := readSource(t, "testdata/vet/barriers.mc")
	_, err := msc.Compile(src, msc.Config{Limits: msc.Limits{Deadline: 30 * time.Millisecond}})
	var be *msc.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Resource != "wall_clock" {
		t.Fatalf("wrong resource: %+v", be)
	}
	if be.Used < be.Limit {
		t.Fatalf("used %d below limit %d", be.Used, be.Limit)
	}
}

// TestDegradeLadder sabotages only the first compile attempt (Times=1)
// and requires the ladder to relax barrier-exact tracking, retry, and
// record the step in Compiled.Degradations and the obs counters.
func TestDegradeLadder(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.BudgetAtPhase,
		Times: 1,
	})
	defer deactivate()
	reg := telemetry.NewRegistry()
	src := readSource(t, "testdata/vet/barriers.mc")
	c, err := msc.Compile(src, msc.Config{
		Compress: true, BarrierExact: true, Degrade: true, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("degraded compile failed: %v", err)
	}
	if len(c.Degradations) != 1 {
		t.Fatalf("want 1 degradation step, got %+v", c.Degradations)
	}
	d := c.Degradations[0]
	if d.Phase != obs.PhaseConvert || d.Resource != "faultinject" || !strings.Contains(d.Action, "barrier-exact") {
		t.Fatalf("wrong degradation step: %+v", d)
	}
	if c.Config.BarrierExact {
		t.Fatal("Compiled.Config still claims barrier-exact after degrading")
	}
	if got := reg.Counter(obs.CounterDegradeSteps, "").Value(); got != 1 {
		t.Errorf("degrade.steps = %d, want 1", got)
	}
	if got := reg.Counter(obs.BudgetCounterPrefix+d.Resource, "").Value(); got != 1 {
		t.Errorf("budget.%s = %d, want 1", d.Resource, got)
	}
	if c.Stats.DegradeSteps != 1 || c.Stats.BudgetOverruns != 1 {
		t.Errorf("stats degrade=%d overruns=%d, want 1/1", c.Stats.DegradeSteps, c.Stats.BudgetOverruns)
	}
}

// TestDegradeLadderExhausted: with every rung already off, Degrade has
// nothing left to relax and the budget error surfaces.
func TestDegradeLadderExhausted(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.BudgetAtPhase,
	})
	defer deactivate()
	src := readSource(t, "testdata/vet/barriers.mc")
	_, err := msc.Compile(src, msc.Config{Degrade: true})
	var be *msc.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError after ladder exhaustion, got %v", err)
	}
}

// TestDegradeCSIBudget: a CSI-search overrun must degrade by disabling
// CSI specifically, not by walking the conversion rungs first.
func TestDegradeCSIBudget(t *testing.T) {
	src := readSource(t, "testdata/robust/deepnest.mc")
	conf := msc.Config{
		Compress: true, CSI: true, Hash: true,
		Limits: msc.Limits{MaxCSICandidates: 1},
	}
	_, err := msc.Compile(src, conf)
	var be *msc.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Phase != obs.PhaseCodegen || be.Resource != "csi_candidates" {
		t.Fatalf("wrong attribution: %+v", be)
	}

	conf.Degrade = true
	c, err := msc.Compile(src, conf)
	if err != nil {
		t.Fatalf("degraded compile failed: %v", err)
	}
	if len(c.Degradations) != 1 || !strings.Contains(c.Degradations[0].Action, "csi off") {
		t.Fatalf("want a single csi-off degradation, got %+v", c.Degradations)
	}
	if c.Config.CSI {
		t.Fatal("Compiled.Config still claims CSI after degrading")
	}
	if c.Config.Compress != true || c.Config.BarrierExact {
		t.Fatalf("unrelated settings were touched: %+v", c.Config)
	}
}

// TestRunConfigMaxStepsValidate pins the validation path and default.
func TestRunConfigMaxStepsValidate(t *testing.T) {
	if err := (msc.RunConfig{N: 4, MaxSteps: -1}).Validate(); err == nil {
		t.Fatal("negative MaxSteps accepted")
	}
	if msc.DefaultMaxSteps != 1<<24 {
		t.Fatalf("DefaultMaxSteps = %d, want %d", msc.DefaultMaxSteps, 1<<24)
	}
}

// TestFaultPanicSpanCloses proves the telemetry contract under failure:
// a panic injected inside a phase still closes that phase's span (with
// a "panic" event on it), the streaming exporter delivers the whole
// span tree and joins its goroutine at Close, and nothing leaks.
func TestFaultPanicSpanCloses(t *testing.T) {
	src := readSource(t, "testdata/robust/barrierstorm.mc")
	leak := faultinject.LeakCheckWithin(2 * time.Second)

	tr := telemetry.NewTracer()
	var buf bytes.Buffer
	exp := telemetry.NewStreamExporter(tr, &buf)
	tr.Exporter = exp

	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert, Fault: faultinject.PanicAtPhase,
	})
	defer deactivate()

	_, err := msc.Compile(src, msc.Config{Compress: true, Tracer: tr})
	var ie *msc.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("exporter close: %v", err)
	}

	// The faulted phase's span must have been streamed (only ended
	// spans are exported) and must carry the panic event.
	type event struct {
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	type span struct {
		Name   string  `json:"name"`
		DurNS  int64   `json:"dur_ns"`
		Events []event `json:"events"`
	}
	var convert *span
	sawCompile := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad exported span %q: %v", line, err)
		}
		switch s.Name {
		case "phase." + obs.PhaseConvert:
			convert = &s
		case "compile":
			sawCompile = true
		}
	}
	if convert == nil {
		t.Fatal("panicked phase span was never exported (span leaked open)")
	}
	if !sawCompile {
		t.Fatal("compile root span not exported on the error path")
	}
	found := false
	for _, e := range convert.Events {
		if e.Name == "panic" {
			found = true
			if v, _ := e.Attrs["value"].(string); !strings.Contains(v, "faultinject") {
				t.Errorf("panic event value %q does not carry the panic text", v)
			}
		}
	}
	if !found {
		t.Fatalf("phase span closed without a panic event: %+v", convert.Events)
	}

	if lerr := leak(); lerr != nil {
		t.Fatal(lerr)
	}
}
