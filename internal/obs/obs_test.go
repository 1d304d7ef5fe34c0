package obs

import (
	"sync"
	"testing"
	"time"

	"msc/internal/telemetry"
)

func TestRecorderCounterAggregation(t *testing.T) {
	r := NewRecorder()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Add("b", 1)
	r.Max("hw", 4)
	r.Max("hw", 2) // lower: ignored
	r.Set("b", 10)
	if got := r.Value("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := r.Value("b"); got != 10 {
		t.Errorf("b = %d, want 10", got)
	}
	if got := r.Value("hw"); got != 4 {
		t.Errorf("hw = %d, want 4", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}

	m := r.Snapshot()
	if len(m.Counters) != 3 {
		t.Fatalf("snapshot has %d counters, want 3", len(m.Counters))
	}
	// Counters keep first-recorded order.
	if m.Counters[0].Name != "a" || m.Counters[1].Name != "b" || m.Counters[2].Name != "hw" {
		t.Errorf("counter order = %v", m.Counters)
	}
	if m.Counter("a") != 5 {
		t.Errorf("Metrics.Counter(a) = %d, want 5", m.Counter("a"))
	}

	// Recorders adding to one registry repeat each counter's operation:
	// Add sums, Set keeps the last value, Max keeps the peak.
	reg := telemetry.NewRegistry()
	for _, v := range []int64{3, 1} {
		r := NewRecorder()
		r.Add("sum", v)
		r.Set("last", v)
		r.Max("peak", v)
		r.AddTo(reg)
	}
	for name, want := range map[string]int64{"sum": 4, "last": 1, "peak": 3} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}
}

func TestRecorderPhases(t *testing.T) {
	r := NewRecorder()
	stop := r.Phase("parse")
	stop()
	r.AddPhase("parse", 3*time.Millisecond)
	r.AddPhase("convert", time.Millisecond)
	if r.PhaseWall("parse") < 3*time.Millisecond {
		t.Errorf("parse wall = %v, want >= 3ms", r.PhaseWall("parse"))
	}
	m := r.Snapshot()
	if len(m.Phases) != 2 || m.Phases[0].Name != "parse" || m.Phases[1].Name != "convert" {
		t.Errorf("phases = %v", m.Phases)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.Set("x", 1)
	r.Max("x", 1)
	r.AddPhase("p", time.Second)
	r.Phase("p")()
	reg := telemetry.NewRegistry()
	r.AddTo(reg)
	NewRecorder().AddTo(nil)
	if r.Value("x") != 0 || r.PhaseWall("p") != 0 || len(reg.Snapshot()) != 0 {
		t.Error("nil recorder returned or added non-zero values")
	}
	if m := r.Snapshot(); len(m.Counters) != 0 || len(m.Phases) != 0 {
		t.Error("nil recorder snapshot not empty")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add("n", 1)
				r.Max("hw", int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Value("n"); got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
	if got := r.Value("hw"); got != 999 {
		t.Errorf("hw = %d, want 999", got)
	}
}
