package msc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"msc"
	"msc/internal/faultinject"
	"msc/internal/harness"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

func newCachedService(t *testing.T, workers int) (*msc.CompileService, *telemetry.Registry, *msc.Cache) {
	t.Helper()
	cc, err := msc.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	svc := msc.NewCompileService(msc.ServiceConfig{
		Workers:  workers,
		Cache:    cc,
		Registry: reg,
	})
	t.Cleanup(func() { svc.Close() })
	return svc, reg, cc
}

func cacheStatus(t *testing.T, svc *msc.CompileService) *msc.CacheStats {
	t.Helper()
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	var st msc.ServiceStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if st.Cache == nil {
		t.Fatalf("statusz carries no cache block: %s", w.Body.String())
	}
	return st.Cache
}

// TestServiceCacheSingleFlight: N identical concurrent POSTs run the
// pipeline exactly once. The leader is pinned inside conversion by a
// slow-phase fault so the rest of the pack provably coalesces; any
// straggler that misses the flight is served by the store. Responses
// must be interchangeable — identical bodies once the legitimately
// per-request stats block is set aside.
func TestServiceCacheSingleFlight(t *testing.T) {
	const n = 6
	svc, reg, cc := newCachedService(t, n)
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, `"emit": ["mpl"]`)

	undo := faultinject.Activate(&faultinject.Plan{
		Fault: faultinject.SlowPhase, Phase: obs.PhaseConvert, Delay: 300 * time.Millisecond, Times: 1,
	})
	defer undo()

	recorders := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			svc.ServeHTTP(w, httptest.NewRequest("POST", "/compile", bytes.NewReader([]byte(body))))
			recorders[i] = w
		}(i)
	}
	wg.Wait()

	var want []byte
	for i, w := range recorders {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
		var resp msc.CompileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		switch resp.Stats.CacheOutcome {
		case "stored", "singleflight-shared", "hit":
		default:
			t.Fatalf("request %d: cache outcome %q", i, resp.Stats.CacheOutcome)
		}
		// Stats vary per request by design (wall times, outcome); the
		// compile result itself must be identical.
		resp.Stats = nil
		norm, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = norm
		} else if !bytes.Equal(want, norm) {
			t.Fatalf("request %d returned a different compile:\n%s\nvs\n%s", i, norm, want)
		}
	}
	if runs := reg.Counter(obs.CounterPipelineRuns, "").Value(); runs != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests", runs, n)
	}
	st := cacheStatus(t, svc)
	if st.ActiveFlights != 0 {
		t.Fatalf("%d flights leaked: %+v", st.ActiveFlights, st)
	}
	if st.SingleFlightShared+st.Hits != n-1 {
		t.Fatalf("dedup accounting: %+v", st)
	}
	if cc.Stats().Entries != 1 {
		t.Fatalf("store entries = %d", cc.Stats().Entries)
	}

	// A second program, compiled and then served from the store, carries
	// its own counters both times, not the service's running totals.
	solo, err := msc.Compile(harness.Divergent, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, outcome := range []string{"stored", "hit"} {
		w := postCompile(t, svc, "/compile", compileBody(t, harness.Divergent, ""))
		var resp msc.CompileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			t.Fatalf("second program: status %d body %s", w.Code, w.Body.String())
		}
		if resp.Stats.CacheOutcome != outcome {
			t.Fatalf("second program: cache outcome %q, want %q", resp.Stats.CacheOutcome, outcome)
		}
		if got, want := statsCounters(resp.Stats), statsCounters(solo.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("second program %s: stats\n%+v\nwant its solo compile's\n%+v", outcome, got, want)
		}
	}
}

// TestServiceCacheLeaderCancelNoLeak: the leader request's client
// disconnects mid-compile; a concurrent identical request must still
// succeed (flight promotion), and the flight table must end empty.
func TestServiceCacheLeaderCancelNoLeak(t *testing.T) {
	svc, _, _ := newCachedService(t, 4)
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, "")

	undo := faultinject.Activate(&faultinject.Plan{
		Fault: faultinject.SlowPhase, Phase: obs.PhaseConvert, Delay: 300 * time.Millisecond, Times: 1,
	})
	defer undo()

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/compile", bytes.NewReader([]byte(body))).WithContext(ctx)
		svc.ServeHTTP(w, req)
	}()
	time.Sleep(50 * time.Millisecond) // leader is inside the slow convert phase

	waiterDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, httptest.NewRequest("POST", "/compile", bytes.NewReader([]byte(body))))
		waiterDone <- w
	}()
	time.Sleep(50 * time.Millisecond) // waiter is parked on the leader's flight

	cancel() // client walks away; the leader compile dies of cancellation
	<-leaderDone

	w := <-waiterDone
	if w.Code != http.StatusOK {
		t.Fatalf("promoted waiter: status %d body %s", w.Code, w.Body.String())
	}
	var resp msc.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.CacheOutcome != "stored" {
		t.Fatalf("promoted waiter outcome = %q, want stored", resp.Stats.CacheOutcome)
	}
	if st := cacheStatus(t, svc); st.ActiveFlights != 0 {
		t.Fatalf("flights leaked after leader cancellation: %+v", st)
	}
}

// TestServiceCacheFaultIsNotClientVisible: a faulted cache must not
// change any client-visible status — the compile succeeds, the failure
// lands in counters and the stats block only.
func TestServiceCacheFaultIsNotClientVisible(t *testing.T) {
	svc, reg, _ := newCachedService(t, 2)
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, "")

	undo := faultinject.Activate(&faultinject.Plan{Fault: faultinject.WriteENOSPC, Nth: 1, Times: 1})
	w := postCompile(t, svc, "/compile", body)
	undo()
	if w.Code != http.StatusOK {
		t.Fatalf("cache fault leaked to the client: status %d body %s", w.Code, w.Body.String())
	}
	var resp msc.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.CacheOutcome != "uncached" || len(resp.Stats.CacheErrors) == 0 {
		t.Fatalf("fault not reported in stats: outcome %q errors %v", resp.Stats.CacheOutcome, resp.Stats.CacheErrors)
	}
	if reg.Counter(obs.CounterCacheErrors, "").Value() == 0 {
		t.Fatal("cache.errors counter not on the service registry")
	}
	// The next identical request stores, the one after hits.
	if w := postCompile(t, svc, "/compile", body); w.Code != http.StatusOK {
		t.Fatalf("recovery compile: %d", w.Code)
	}
	w = postCompile(t, svc, "/compile", body)
	var resp2 msc.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Stats.CacheOutcome != "hit" {
		t.Fatalf("converged outcome = %q, want hit", resp2.Stats.CacheOutcome)
	}
}

// TestServiceCacheDrain: draining with a cached service completes
// cleanly — in-flight flights belong to in-flight requests, so the
// drain wait empties the flight table too.
func TestServiceCacheDrain(t *testing.T) {
	svc, _, cc := newCachedService(t, 2)
	src := readSource(t, "testdata/vet/barriers.mc")
	body := compileBody(t, src, "")

	undo := faultinject.Activate(&faultinject.Plan{
		Fault: faultinject.SlowPhase, Phase: obs.PhaseConvert, Delay: 200 * time.Millisecond, Times: 1,
	})
	defer undo()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, httptest.NewRequest("POST", "/compile", bytes.NewReader([]byte(body))))
		done <- w
	}()
	waitInFlight(t, svc, 1) // request is mid-compile

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight compile during drain: status %d body %s", w.Code, w.Body.String())
	}
	if st := cc.Stats(); st.ActiveFlights != 0 {
		t.Fatalf("flights survived the drain: %+v", st)
	}
}
