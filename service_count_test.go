package msc

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"msc/internal/telemetry"
)

// TestServiceCountAllocs: a response of a status the service has
// answered before adds to its service.responses counter without a
// registry lookup, so it allocates nothing.
func TestServiceCountAllocs(t *testing.T) {
	svc := NewCompileService(ServiceConfig{})
	defer svc.Close()
	for _, status := range []int{200, 400, 499} {
		svc.count(status)
		if a := testing.AllocsPerRun(100, func() { svc.count(status) }); a != 0 {
			t.Errorf("count(%d) allocates %v times per call, want 0", status, a)
		}
	}
}

// TestServiceCountConcurrent: goroutines that answer a status for the
// first time at once all add to the one series it gets.
func TestServiceCountConcurrent(t *testing.T) {
	svc := NewCompileService(ServiceConfig{})
	defer svc.Close()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				svc.count(503)
			}
		}()
	}
	wg.Wait()
	c := svc.cfg.Registry.Counter("service.responses", "responses by status",
		telemetry.Label{Name: "status", Value: "503"})
	if got := c.Value(); got != 800 {
		t.Fatalf("service.responses{status=503} = %d, want 800", got)
	}
}

// TestServiceResponsesMetrics: after a fixed request sequence, /metrics
// shows one service.responses series per status, in first-response
// order, with the count of each.
func TestServiceResponsesMetrics(t *testing.T) {
	svc := NewCompileService(ServiceConfig{})
	defer svc.Close()
	good, err := os.ReadFile("testdata/vet/barriers.mc")
	if err != nil {
		t.Fatal(err)
	}
	src, err := json.Marshal(string(good))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{not json`,
		`{"source": ` + string(src) + `}`,
		`{"source": ` + string(src) + `, "limits": {"max_states": 1}}`,
		`{"source": ` + string(src) + `}`,
		`{"config": {"compress": true}}`,
		`{"source": "void main( { return;"}`,
	} {
		svc.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/compile", strings.NewReader(body)))
	}
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var got []string
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if strings.Contains(line, "service_responses") {
			got = append(got, line)
		}
	}
	want := []string{
		"# HELP service_responses responses by status",
		"# TYPE service_responses counter",
		`service_responses{status="400"} 3`,
		`service_responses{status="200"} 2`,
		`service_responses{status="429"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("service_responses series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
