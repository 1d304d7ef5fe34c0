package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99},
		{1000, 99}, // exactly 10 beyond p99
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 50}, // no rung has 10 beyond: the lowest rung
		{0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestTailValueHasTenSamplesBeyond(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 1000; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	p := tailPercentile(len(lat))
	v := percentile(lat, p)
	beyond := 0
	for _, x := range lat {
		if x > v {
			beyond++
		}
	}
	if p != 99 || v != 990*time.Millisecond || beyond != 10 {
		t.Fatalf("p%g = %v with %d beyond, want p99 = 990ms with 10 beyond", p, v, beyond)
	}
	if got := percentile(lat, 50); got != 500*time.Millisecond {
		t.Fatalf("p50 = %v, want 500ms", got)
	}
}

func TestTailRungFallsBackWhenTooFewSamples(t *testing.T) {
	// A workload's fixed rung is kept when the sample supports it and
	// lowered to the highest supported rung otherwise.
	if got := math.Min(99, tailPercentile(500)); got != 95 {
		t.Errorf("p99 rung at 500 samples reported as p%g, want p95", got)
	}
	if got := math.Min(95, tailPercentile(5000)); got != 95 {
		t.Errorf("p95 rung at 5000 samples reported as p%g, want p95", got)
	}
}

func TestScheduleIsFixedBySeedAndRunsWholeRounds(t *testing.T) {
	deck := []int{0, 0, 0, 1, 2, 3, 4}
	seqOf := func(seed int64) []int {
		// A zero budget stops at the first round boundary.
		s := &schedule{seed: seed, deck: deck, start: time.Now()}
		var got []int
		for {
			_, e, ok := s.next()
			if !ok {
				return got
			}
			got = append(got, e)
		}
	}
	a, b := seqOf(7), seqOf(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two op sequences: %v and %v", a, b)
	}
	if len(a) != len(deck) {
		t.Fatalf("a spent budget stopped after %d ops, want one whole round of %d", len(a), len(deck))
	}
	counts := map[int]int{}
	for _, e := range a {
		counts[e]++
	}
	if counts[0] != 3 || counts[4] != 1 {
		t.Fatalf("round does not hold the deck's multiset: %v", counts)
	}
	if reflect.DeepEqual(a, seqOf(8)) && reflect.DeepEqual(a, seqOf(9)) {
		t.Fatalf("seeds 7, 8 and 9 gave the same order")
	}

	// A window that continues at round 1 runs what the second round of
	// one uninterrupted phase runs, under the same op indices.
	whole := &schedule{seed: 7, deck: deck, start: time.Now(), budget: time.Hour}
	var wantSeq, wantEntry []int
	for i := 0; i < 2*len(deck); i++ {
		seq, e, _ := whole.next()
		if i >= len(deck) {
			wantSeq, wantEntry = append(wantSeq, seq), append(wantEntry, e)
		}
	}
	next := &schedule{seed: 7, deck: deck, round0: 1, start: time.Now()}
	var gotSeq, gotEntry []int
	for {
		seq, e, ok := next.next()
		if !ok {
			break
		}
		gotSeq, gotEntry = append(gotSeq, seq), append(gotEntry, e)
	}
	if !reflect.DeepEqual(gotSeq, wantSeq) || !reflect.DeepEqual(gotEntry, wantEntry) {
		t.Fatalf("round 1 as its own window ran ops %v entries %v, want %v %v", gotSeq, gotEntry, wantSeq, wantEntry)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEndMetrics)
	same("per_layer", decl.PerLayer, layerMetrics)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, decl.Workloads[i].Name, w.name)
		}
	}
}

// fakeBench is a bench whose entry 2 always fails.
type fakeBench struct{ d []int }

func (f fakeBench) deck() []int            { return f.d }
func (f fakeBench) entryName(e int) string { return fmt.Sprint("entry ", e) }
func (f fakeBench) counts() (int64, int64) { return 0, 0 }
func (f fakeBench) close() error           { return nil }
func (f fakeBench) layers(map[string]metric, *tracer) error {
	return nil
}
func (f fakeBench) op(seq, e int, tr *tracer) (time.Duration, error) {
	time.Sleep(50 * time.Microsecond)
	if e == 2 {
		return time.Microsecond, errors.New("wrong output")
	}
	return time.Microsecond, nil
}

func TestPhaseRunsWholeRoundsAcrossClients(t *testing.T) {
	b := fakeBench{d: []int{0, 1, 1, 2}}
	ph := runPhase(b, 3, 0, 4, 20*time.Millisecond, nil)
	if len(ph.rounds) < 2 {
		t.Fatalf("only %d rounds in 20ms", len(ph.rounds))
	}
	for i, r := range ph.rounds {
		if len(r.lats) != len(b.d) || r.ok != len(b.d)-1 {
			t.Fatalf("round %d has %d ops, %d ok; want whole rounds of %d with one failure", i, len(r.lats), r.ok, len(b.d))
		}
	}
	if len(ph.failures) != len(ph.rounds) {
		t.Fatalf("%d failures over %d rounds, want one per round", len(ph.failures), len(ph.rounds))
	}
	for i := 1; i < len(ph.failures); i++ {
		if ph.failures[i-1].seq >= ph.failures[i].seq {
			t.Fatalf("failures not listed by op index: %d before %d", ph.failures[i-1].seq, ph.failures[i].seq)
		}
	}
	if got := ph.okFrac(); got != 0.75 {
		t.Fatalf("ok_frac = %g, want 0.75", got)
	}
	tm := timingOf([]*phase{ph}, 99)
	if tm.p50 != time.Microsecond || tm.opsPerS <= 0 {
		t.Fatalf("timing %+v", tm)
	}
}
