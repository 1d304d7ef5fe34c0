package msc_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"msc"
	"msc/internal/obs"
	"msc/internal/progen"
	"msc/internal/telemetry"
)

// TestConcurrentCompilesShareConfig is the shared-infrastructure race
// test: N goroutines compile through ONE Config value carrying a
// shared telemetry.Registry and a shared Tracer — the way
// CompileService uses the library. Under -race this flushes out any
// unsynchronized state; the assertions below additionally catch lost
// counter updates and cross-request contamination.
func TestConcurrentCompilesShareConfig(t *testing.T) {
	const workers = 16

	reg := telemetry.NewRegistry()
	conf := msc.DefaultConfig()
	conf.Metrics = reg
	conf.Tracer = telemetry.NewTracer()

	// Baseline: one compile of the reference program, so we know
	// exactly what one compile contributes.
	refSrc := readSource(t, "testdata/vet/barriers.mc")
	refCompiled, err := msc.Compile(refSrc, conf)
	if err != nil {
		t.Fatal(err)
	}
	refMPL := refCompiled.MPL()

	// Half the goroutines compile the identical source (results must be
	// byte-identical to the baseline — concurrency must not perturb the
	// automaton); the other half compile distinct progen programs
	// (results must stay distinct — no cross-request bleed).
	var wg sync.WaitGroup
	srcs := make([]string, workers)
	compiled := make([]*msc.Compiled, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		srcs[i] = refSrc
		if i%2 == 1 {
			srcs[i] = progen.Source(progen.Params{
				Seed: int64(9000 + i), Barriers: true, Floats: true,
				MaxDepth: 3, MaxStmts: 5, Vars: 4, LoopTrip: 3,
			})
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			compiled[i], errs[i] = msc.Compile(srcs[i], conf)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// CounterTokens accumulates (unlike the state counts, which are
	// last-value), so it is the counter that detects lost updates.
	tokens := refCompiled.Stats.TokensParsed
	for i, c := range compiled {
		if same := c.MPL() == refMPL; same != (i%2 == 0) {
			t.Errorf("worker %d: MPL identical to the reference = %t (cross-request bleed?)\n%s", i, same, srcs[i])
		}
		// Each compile's stats describe that compile alone: they match
		// a solo compile of the same source into no registry.
		solo, err := msc.Compile(srcs[i], msc.DefaultConfig())
		if err != nil {
			t.Fatalf("worker %d recount: %v", i, err)
		}
		if got, want := statsCounters(c.Stats), statsCounters(solo.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d: stats under a shared registry\n%+v\nwant a solo compile's\n%+v", i, got, want)
		}
		tokens += solo.Stats.TokensParsed
	}

	// No counter loss: the shared registry saw the baseline and every
	// worker's tokens.
	if got := reg.Counter(obs.CounterTokens, "").Value(); got != tokens {
		t.Errorf("shared registry lost updates: tokens counter = %d, want %d", got, tokens)
	}
}

// statsCounters returns s without the fields that differ between two
// compiles of one program: the wall times and the cache outcome.
func statsCounters(s *msc.CompileStats) msc.CompileStats {
	c := *s
	c.PhaseWall, c.CacheOutcome, c.CacheErrors = nil, "", nil
	return c
}

// TestConcurrentServiceCompiles drives the same property through the
// HTTP handler: concurrent identical requests return byte-identical
// MPL and the stats of one solo compile, and the service's counters
// account for every request.
func TestConcurrentServiceCompiles(t *testing.T) {
	const n = 12
	svc := msc.NewCompileService(msc.ServiceConfig{Workers: 4})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, `"emit": ["mpl"]`)

	solo, err := msc.Compile(src, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := statsCounters(solo.Stats)

	var wg sync.WaitGroup
	resps := make([]msc.CompileResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postCompile(t, svc, "/compile", body)
			codes[i] = w.Code
			if w.Code == 200 {
				_ = json.Unmarshal(w.Body.Bytes(), &resps[i])
			}
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if resp.MPL == "" || resp.MPL != resps[0].MPL {
			t.Errorf("request %d: automaton differs under concurrency", i)
		}
		if resp.Stats == nil {
			t.Fatalf("request %d: response carries no stats", i)
		}
		if got := statsCounters(resp.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: stats\n%+v\nwant a solo compile's\n%+v", i, got, want)
		}
	}
	st := statusz(t, svc)
	if st.Status2xx < n {
		t.Errorf("status counters lost updates: 2xx = %d, want >= %d", st.Status2xx, n)
	}
}
