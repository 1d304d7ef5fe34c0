package msc_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"msc"
	"msc/internal/faultinject"
	"msc/internal/harness"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// The CompileService tests drive the handler directly — no sockets —
// which is exactly why the service is a plain http.Handler.

func postCompile(t *testing.T, svc *msc.CompileService, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, req)
	return w
}

func compileBody(t *testing.T, source string, extra string) string {
	t.Helper()
	b, err := json.Marshal(source)
	if err != nil {
		t.Fatal(err)
	}
	if extra != "" {
		return fmt.Sprintf(`{"source": %s, %s}`, b, extra)
	}
	return fmt.Sprintf(`{"source": %s}`, b)
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) msc.ErrorBody {
	t.Helper()
	var eb msc.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body not JSON (%v): %s", err, w.Body.String())
	}
	return eb
}

func TestServiceCompileOK(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	w := postCompile(t, svc, "/compile", compileBody(t, src, `"emit": ["mpl"], "run": {"engine": "simd", "n": 8}`))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp msc.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MetaStates < 1 || resp.MIMDStates < 1 {
		t.Errorf("empty automaton in response: %+v", resp)
	}
	if resp.Stats == nil || resp.Stats.MetaStates < 1 {
		t.Errorf("stats missing: %+v", resp.Stats)
	}
	if !strings.Contains(resp.MPL, "ms_0") {
		t.Errorf("emitted MPL looks wrong: %q", resp.MPL)
	}
	if resp.Run == nil || resp.Run.Cycles <= 0 || resp.Run.Engine != "simd" {
		t.Errorf("run result missing: %+v", resp.Run)
	}
}

// TestServiceErrorTaxonomy is the status mapping table from
// docs/SERVICE.md, end to end through the handler.
func TestServiceErrorTaxonomy(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	good := readSource(t, "testdata/vet/barriers.mc")
	nonterm := readSource(t, "testdata/robust/nonterminating.mc")

	cases := []struct {
		name       string
		path, body string
		wantStatus int
		wantKind   string
		check      func(t *testing.T, eb msc.ErrorBody, raw string)
	}{
		{
			name: "not json", path: "/compile", body: "{not json",
			wantStatus: 400, wantKind: "invalid",
		},
		{
			name: "missing source", path: "/compile", body: `{"config": {"compress": true}}`,
			wantStatus: 400, wantKind: "invalid",
		},
		{
			name: "parse error", path: "/compile", body: compileBody(t, "void main( { return;", ""),
			wantStatus: 400, wantKind: "invalid",
		},
		{
			name: "invalid config", path: "/compile",
			body:       compileBody(t, good, `"config": {"compress": true, "split_percent": 200}`),
			wantStatus: 400, wantKind: "invalid",
		},
		{
			name: "invalid engine", path: "/compile",
			body:       compileBody(t, good, `"run": {"engine": "quantum"}`),
			wantStatus: 400, wantKind: "invalid",
		},
		{
			name: "over budget", path: "/compile",
			body:       compileBody(t, good, `"limits": {"max_states": 1}`),
			wantStatus: 429, wantKind: "budget",
			check: func(t *testing.T, eb msc.ErrorBody, raw string) {
				if eb.Resource != "meta_states" || eb.Phase != obs.PhaseConvert {
					t.Errorf("budget attribution wrong: %+v", eb)
				}
				if eb.Limit != 1 || eb.Used < 1 {
					t.Errorf("budget numbers wrong: %+v", eb)
				}
			},
		},
		{
			name: "step limit", path: "/compile",
			body:       compileBody(t, nonterm, `"run": {"engine": "simd", "n": 4, "max_steps": 64}`),
			wantStatus: 422, wantKind: "step_limit",
			check: func(t *testing.T, eb msc.ErrorBody, raw string) {
				if eb.Engine != "simd" {
					t.Errorf("engine attribution wrong: %+v", eb)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postCompile(t, svc, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			eb := decodeError(t, w)
			if eb.Error != tc.wantKind {
				t.Fatalf("kind = %q, want %q (%+v)", eb.Error, tc.wantKind, eb)
			}
			if tc.check != nil {
				tc.check(t, eb, w.Body.String())
			}
		})
	}
}

// TestServiceInternalErrorHidesStack: a contained panic maps to 500
// with phase attribution and no stack or panic value in the body.
func TestServiceInternalErrorHidesStack(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseCodegen,
		Fault: faultinject.PanicAtPhase,
	})
	defer deactivate()
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	w := postCompile(t, svc, "/compile", compileBody(t, src, ""))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	eb := decodeError(t, w)
	if eb.Error != "internal" || eb.Phase != obs.PhaseCodegen {
		t.Fatalf("internal attribution wrong: %+v", eb)
	}
	body := w.Body.String()
	for _, leak := range []string{"goroutine", ".go:", "faultinject: injected"} {
		if strings.Contains(body, leak) {
			t.Errorf("500 body leaks internals (%q): %s", leak, body)
		}
	}
}

// TestServiceDegradeQuery: ?degrade=1 turns the ladder on and the
// response reports the rungs taken.
func TestServiceDegradeQuery(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.BudgetAtPhase,
		Times: 1,
	})
	defer deactivate()
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, `"config": {"compress": true, "barrier_exact": true}`)
	w := postCompile(t, svc, "/compile?degrade=1", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var resp msc.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Degradations) != 1 || !strings.Contains(resp.Degradations[0].Action, "barrier-exact") {
		t.Fatalf("degradation rungs not reported: %+v", resp.Degradations)
	}
}

// TestServiceAdmission: with one worker and a queue of one, a third
// concurrent request is rejected 429 while the first two eventually
// succeed.
func TestServiceAdmission(t *testing.T) {
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.SlowPhase,
		Delay: 400 * time.Millisecond,
	})
	defer deactivate()
	svc := msc.NewCompileService(msc.ServiceConfig{Workers: 1, QueueDepth: 1})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, "")

	type outcome struct{ code int }
	results := make(chan outcome, 3)
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postCompile(t, svc, "/compile", body)
			results <- outcome{w.Code}
		}()
	}
	// Occupy the worker, then the queue slot, then overflow.
	launch()
	waitInFlight(t, svc, 1)
	launch()
	waitQueued(t, svc, 1)
	launch()
	wg.Wait()
	close(results)

	counts := map[int]int{}
	for r := range results {
		counts[r.code]++
	}
	if counts[http.StatusOK] != 2 || counts[http.StatusTooManyRequests] != 1 {
		t.Fatalf("status counts = %v, want 2×200 and 1×429", counts)
	}
}

func statusz(t *testing.T, svc *msc.CompileService) msc.ServiceStatus {
	t.Helper()
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	var st msc.ServiceStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz not JSON: %s", w.Body.String())
	}
	return st
}

func waitInFlight(t *testing.T, svc *msc.CompileService, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for statusz(t, svc).InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("in_flight never reached %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitQueued(t *testing.T, svc *msc.CompileService, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for statusz(t, svc).Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queued never reached %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceDrain: draining flips /readyz, rejects new work with 503,
// lets the in-flight compile finish, and leaves no goroutines behind.
func TestServiceDrain(t *testing.T) {
	leak := faultinject.LeakCheckWithin(5 * time.Second)
	deactivate := faultinject.Activate(&faultinject.Plan{
		Phase: obs.PhaseConvert,
		Fault: faultinject.SlowPhase,
		Delay: 300 * time.Millisecond,
	})
	svc := msc.NewCompileService(msc.ServiceConfig{Workers: 2})
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, "")

	inFlightDone := make(chan int, 1)
	go func() {
		w := postCompile(t, svc, "/compile", body)
		inFlightDone <- w.Code
	}()
	waitInFlight(t, svc, 1)

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// Readiness flips as soon as draining starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
		if w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New work is rejected while draining.
	if w := postCompile(t, svc, "/compile", body); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("compile while draining: status %d", w.Code)
	} else if decodeError(t, w).Error != "draining" {
		t.Fatalf("wrong rejection kind: %s", w.Body.String())
	}
	// The in-flight request still completes, then Drain returns.
	if code := <-inFlightDone; code != http.StatusOK {
		t.Fatalf("in-flight compile status %d", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	svc.Close()
	deactivate()
	if err := leak(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceStreaming: ?trace=1 produces an NDJSON stream of span
// envelopes (plus engine events when running) with exactly one final
// done envelope — and a fail envelope on error.
func TestServiceStreaming(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	w := postCompile(t, svc, "/compile?trace=1",
		compileBody(t, src, `"run": {"engine": "simd", "n": 4}`))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var spans, events, dones int
	var lastKind string
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("stream line not JSON: %s", sc.Text())
		}
		switch {
		case env["span"] != nil:
			spans++
			lastKind = "span"
		case env["event"] != nil:
			events++
			lastKind = "event"
		case env["done"] != nil:
			dones++
			lastKind = "done"
		case env["fail"] != nil:
			lastKind = "fail"
		}
	}
	if spans < 5 {
		t.Errorf("want compile phase spans in stream, got %d", spans)
	}
	if events < 1 {
		t.Errorf("want engine trace events in stream, got %d", events)
	}
	if dones != 1 || lastKind != "done" {
		t.Errorf("stream must end with exactly one done envelope (dones=%d last=%s)", dones, lastKind)
	}

	// Failure shape: invalid program → 200 stream closed by a fail
	// envelope carrying the taxonomy kind.
	w = postCompile(t, svc, "/compile?trace=1", compileBody(t, "void main( {", ""))
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var env map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &env); err != nil || env["fail"] == nil {
		t.Fatalf("failed stream does not end in fail envelope: %q", lines[len(lines)-1])
	}
	var eb msc.ErrorBody
	if err := json.Unmarshal(env["fail"], &eb); err != nil || eb.Error != "invalid" {
		t.Fatalf("fail envelope wrong: %s", env["fail"])
	}
}

// TestServiceIntrospection: healthz/readyz/metrics/statusz all serve,
// and a compile's metrics land in the Prometheus exposition.
func TestServiceIntrospection(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	if w := postCompile(t, svc, "/compile", compileBody(t, src, "")); w.Code != 200 {
		t.Fatalf("compile: %d", w.Code)
	}

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != 200 {
		t.Errorf("healthz: %d", w.Code)
	}
	if w := get("/readyz"); w.Code != 200 {
		t.Errorf("readyz: %d", w.Code)
	}
	st := statusz(t, svc)
	if st.Served < 1 || st.Status2xx < 1 || st.Goroutines < 1 {
		t.Errorf("statusz incomplete: %+v", st)
	}
	if st.RSSBytes <= 0 {
		t.Logf("statusz rss unavailable on this platform: %+v", st)
	}
	w := get("/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"service_latency_ns", "compile_latency_ns", "service_responses", "proc_goroutines", "convert_meta_states"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestServiceRequestLimitsClamped: a request may tighten the service
// limits but not exceed the configured ceiling.
func TestServiceRequestLimitsClamped(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{
		DefaultLimits: msc.Limits{MaxStates: 4},
	})
	defer svc.Close()
	src := readSource(t, "testdata/vet/barriers.mc")
	// Asking for a bigger budget than the service allows still hits the
	// service ceiling.
	w := postCompile(t, svc, "/compile", compileBody(t, src, `"limits": {"max_states": 100000}`))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (service ceiling must clamp)", w.Code)
	}
	eb := decodeError(t, w)
	if eb.Limit != 4 {
		t.Fatalf("clamped limit = %d, want 4: %+v", eb.Limit, eb)
	}
}

// TestServiceCeilingsClampEveryLimit: the CSI-candidate and memory
// ceilings hold like the deadline and state ceilings. A request that
// sends an empty limits object, or a value above the ceiling, still
// runs under the ceiling; a tighter value wins.
func TestServiceCeilingsClampEveryLimit(t *testing.T) {
	for _, tc := range []struct {
		resource string
		src      string
		ceiling  msc.Limits
		field    string
		limit    int64 // the ceiling's value for this resource
		tighter  int64
	}{
		// Primes examines more than 10 CSI candidates under
		// DefaultConfig; Divergent's conversion estimate is above
		// 1000 bytes.
		{"csi_candidates", harness.Primes, msc.Limits{MaxCSICandidates: 10}, "max_csi_candidates", 10, 3},
		{"mem_bytes", harness.Divergent, msc.Limits{MaxMemBytes: 1000}, "max_mem_bytes", 1000, 100},
	} {
		svc := msc.NewCompileService(msc.ServiceConfig{DefaultLimits: tc.ceiling})
		for _, req := range []struct {
			limits string
			want   int64
		}{
			{`{}`, tc.limit},
			{`{"max_states": 1000}`, tc.limit},
			{fmt.Sprintf(`{%q: 1000000000}`, tc.field), tc.limit},
			{fmt.Sprintf(`{%q: %d}`, tc.field, tc.tighter), tc.tighter},
		} {
			w := postCompile(t, svc, "/compile", compileBody(t, tc.src, `"limits": `+req.limits))
			if w.Code != http.StatusTooManyRequests {
				t.Fatalf("%s, limits %s: status %d, want 429: %s", tc.resource, req.limits, w.Code, w.Body.String())
			}
			if eb := decodeError(t, w); eb.Resource != tc.resource || eb.Limit != req.want {
				t.Fatalf("limits %s: over %s budget of %d, want %s budget of %d",
					req.limits, eb.Resource, eb.Limit, tc.resource, req.want)
			}
		}
		svc.Close()
	}
}

// TestServiceRunWidthCeiling: a run.n above the 65,536-PE ceiling is
// refused with 400 before admission, so no compile runs and no engine
// sizes memory for it.
func TestServiceRunWidthCeiling(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	runs := svc.Registry().Counter(obs.CounterPipelineRuns, "")
	src := "poly int x;\nvoid main()\n{\n    x = iproc;\n    return;\n}\n"
	w := postCompile(t, svc, "/compile", compileBody(t, src, `"run": {"engine": "simd", "n": 65537}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body.String())
	}
	if eb := decodeError(t, w); eb.Error != "invalid" || !strings.Contains(eb.Message, "65536") {
		t.Fatalf("error = %+v, want invalid naming the 65536-PE ceiling", eb)
	}
	if n := runs.Value(); n != 0 {
		t.Fatalf("compile.pipeline_runs = %d after a refused request, want 0", n)
	}
	w = postCompile(t, svc, "/compile", compileBody(t, src, `"run": {"engine": "mimd", "n": 8}`))
	if w.Code != http.StatusOK || runs.Value() != 1 {
		t.Fatalf("status = %d, pipeline runs %d after a width inside the ceiling, want 200 and 1", w.Code, runs.Value())
	}
}

// TestServiceRunMemoryCeiling: one 4,194,304-word array run on 1,024
// PEs would bill 32 GiB of PE memory. The run is refused with 400,
// naming the ceiling, before any engine allocates; only the compile's
// own allocations remain, far below the bill. A run inside the ceiling
// still goes through.
func TestServiceRunMemoryCeiling(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := "poly int a[4194304];\nvoid main()\n{\n    a[0] = iproc;\n    return;\n}\n"
	for _, engine := range []string{"simd", "mimd", "interp"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		w := postCompile(t, svc, "/compile", compileBody(t, src, fmt.Sprintf(`"run": {"engine": %q, "n": 1024}`, engine)))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400; body %s", engine, w.Code, w.Body.String())
		}
		if eb := decodeError(t, w); eb.Error != "invalid" || !strings.Contains(eb.Message, "1073741824") {
			t.Fatalf("%s: error = %+v, want invalid naming the 1073741824-byte ceiling", engine, eb)
		}
		const bill = 1024 * 4194304 * 8
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bill/64 {
			t.Fatalf("%s: a refused run allocated %d bytes; its bill is %d", engine, alloc, int64(bill))
		}
		if elapsed > 10*time.Second {
			t.Fatalf("%s: refusal took %v", engine, elapsed)
		}
	}
	w := postCompile(t, svc, "/compile", compileBody(t, src, `"run": {"engine": "simd", "n": 2}`))
	if w.Code != http.StatusOK {
		t.Fatalf("run inside the ceiling: status = %d, want 200; body %s", w.Code, w.Body.String())
	}
}

// TestServiceRunDeadline: the request's deadline bounds the run as well
// as the compile. A non-terminating program with deadline_ms 200 gets
// 429 budget for phase run within seconds, on the plain and on the
// streaming path, instead of running to the step limit.
func TestServiceRunDeadline(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/robust/nonterminating.mc")
	body := compileBody(t, src, `"limits": {"deadline_ms": 200}, "run": {"engine": "simd", "n": 1}`)
	start := time.Now()
	w := postCompile(t, svc, "/compile", body)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v, want under 5s", elapsed)
	}
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if eb := decodeError(t, w); eb.Error != "budget" || eb.Phase != "run" || eb.Resource != "wall_clock" {
		t.Fatalf("error = %+v, want budget for phase run, resource wall_clock", eb)
	}

	start = time.Now()
	w = postCompile(t, svc, "/compile?trace=1", body)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("streaming request took %v, want under 5s", elapsed)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var last struct {
		Fail *msc.ErrorBody `json:"fail"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Fail == nil ||
		last.Fail.Error != "budget" || last.Fail.Phase != "run" {
		t.Fatalf("streaming: last line %s, want a fail envelope with budget for phase run", lines[len(lines)-1])
	}
	if n := svc.Registry().Counter(obs.BudgetCounterPrefix+"wall_clock", "").Value(); n != 2 {
		t.Fatalf("budget.wall_clock = %d after two run overruns, want 2", n)
	}
}

// TestServiceRunCallerDeadline: a caller deadline that expires before
// the request's own is the caller's, by the rule the compile's deadline
// follows: the streaming path reports canceled, not budget, and the
// plain path counts a client-closed request, not a 429.
func TestServiceRunCallerDeadline(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/robust/nonterminating.mc")
	body := compileBody(t, src, `"limits": {"deadline_ms": 60000}, "run": {"engine": "simd", "n": 1}`)
	post := func(path string) *httptest.ResponseRecorder {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, req)
		return w
	}
	w := post("/compile?trace=1")
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var last struct {
		Fail *msc.ErrorBody `json:"fail"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Fail == nil || last.Fail.Error != "canceled" {
		t.Fatalf("streaming: last line %s, want a fail envelope with canceled", lines[len(lines)-1])
	}
	post("/compile")
	closed := svc.Registry().Counter("service.responses", "", telemetry.Label{Name: "status", Value: "499"})
	budget := svc.Registry().Counter("service.responses", "", telemetry.Label{Name: "status", Value: "429"})
	if closed.Value() != 1 || budget.Value() != 0 {
		t.Fatalf("responses: %d client-closed and %d 429, want 1 and 0", closed.Value(), budget.Value())
	}
}

// TestServiceRunNegativeMaxSteps: a negative run.max_steps is refused
// with 400 before any compile runs.
func TestServiceRunNegativeMaxSteps(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	runs := svc.Registry().Counter(obs.CounterPipelineRuns, "")
	src := readSource(t, "testdata/vet/barriers.mc")
	w := postCompile(t, svc, "/compile", compileBody(t, src, `"run": {"engine": "mimd", "n": 4, "max_steps": -1}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body.String())
	}
	if n := runs.Value(); n != 0 {
		t.Fatalf("compile.pipeline_runs = %d after a refused request, want 0", n)
	}
	if eb := decodeError(t, w); eb.Error != "invalid" || !strings.Contains(eb.Message, "max_steps") {
		t.Fatalf("error = %+v, want invalid naming max_steps", eb)
	}
}

// TestServiceRunMaxStepsClamped: a run.max_steps above DefaultMaxSteps
// cannot lift the engines' step bound. A non-terminating program stops
// at the default bound with 422; the request deadline only keeps an
// unclamped service from holding the test for good.
func TestServiceRunMaxStepsClamped(t *testing.T) {
	svc := msc.NewCompileService(msc.ServiceConfig{})
	defer svc.Close()
	src := readSource(t, "testdata/robust/nonterminating.mc")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	body := compileBody(t, src, `"run": {"engine": "mimd", "n": 1, "max_steps": 1099511627776}`)
	req := httptest.NewRequest("POST", "/compile", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", w.Code, w.Body.String())
	}
	if eb := decodeError(t, w); eb.Error != "step_limit" || eb.Limit != msc.DefaultMaxSteps {
		t.Fatalf("error = %+v, want step_limit at the default bound %d", eb, msc.DefaultMaxSteps)
	}
}
