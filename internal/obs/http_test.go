package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"msc/internal/faultinject"
	"msc/internal/telemetry"
)

func TestDebugServerServesPprofAndExpvar(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list goroutine profile")
	}

	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if _, ok := decoded["memstats"]; !ok {
		t.Errorf("/debug/vars lacks the runtime's memstats: %s", vars)
	}
}

// TestDebugServerMetrics mounts a registry at /metrics and scrapes it:
// pipeline counters a Recorder adds to it must come back in Prometheus
// text exposition form.
func TestDebugServerMetrics(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	srv.MountMetrics(reg)
	r := NewRecorder()
	r.Add(CounterMetaStates, 5)
	r.AddPhase(PhaseConvert, 1500)
	r.AddTo(reg)

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	if !strings.Contains(body, "convert_meta_states 5") {
		t.Errorf("scrape missing recorder counter:\n%s", body)
	}
	if !strings.Contains(body, "phase_convert 1500") {
		t.Errorf("scrape missing phase wall time:\n%s", body)
	}

	// Metrics added after a scrape appear on the next one.
	r = NewRecorder()
	r.Add(CounterMetaStates, 2)
	r.AddTo(reg)
	resp2, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b, err = io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "convert_meta_states 7") {
		t.Errorf("rescrape missing updated counter:\n%s", b)
	}
}

// TestDebugServerCloseUnblocksAndDoesNotLeak locks the shutdown
// contract cmd/mscd relies on: Close must (a) unblock an in-flight
// handler that honors its request context, (b) join the listener
// goroutine, and (c) leave no goroutine behind — checked with
// faultinject.LeakCheckWithin. It must also be idempotent.
func TestDebugServerCloseUnblocksAndDoesNotLeak(t *testing.T) {
	leak := faultinject.LeakCheckWithin(5 * time.Second)

	srv, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.MountMetrics(telemetry.NewRegistry())

	// A handler that blocks until its request context is canceled:
	// without the BaseContext wiring, Close would leave it (and its
	// connection goroutine) stuck forever.
	entered := make(chan struct{})
	unblocked := make(chan struct{})
	srv.Handle("/block", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		close(entered)
		<-req.Context().Done()
		close(unblocked)
	}))

	// Issue the blocking request; the client errors out when Close
	// tears the connection down, which is fine — the handler side is
	// what must unblock.
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/block", srv.Addr()))
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking handler never entered")
	}

	// A normal in-flight scrape must also complete or be cleanly torn
	// down; fire one concurrently with Close.
	go http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a handler in flight")
	}
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight handler")
	}
	if err := srv.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("second Close: %v", err)
	}

	// After Close: no listener goroutine, no per-connection goroutines.
	if err := leak(); err != nil {
		t.Fatal(err)
	}

	// And the listener is really gone: a new request must fail.
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr())); err == nil {
		t.Fatal("server still serving after Close")
	}
}
