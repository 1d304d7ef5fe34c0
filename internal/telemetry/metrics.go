// Package telemetry is the service-grade observability backbone of the
// pipeline: a metrics registry (typed counters, gauges, and
// exponential-bucket histograms with atomic hot-path updates and
// Prometheus text exposition), hierarchical tracing (trace/span IDs
// with parent links, typed attributes, span events, JSONL and Chrome
// trace_event export), and a low-overhead sampling profiler that
// attributes engine cycles to meta states and source blocks.
//
// The package is standard library only (plus the leaf internal/ir for
// source positions) so every internal package may depend on it. All
// hot-path mutators are safe on nil receivers: disabled telemetry costs
// one nil check per call site and nothing else. Each compile's
// obs.Recorder adds its phase walls and counters to a Registry when the
// compile ends, so /metrics exposes what Compiled.Stats reports.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration time.
type Label struct {
	Name, Value string
}

// Kind classifies a registered metric for exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is a monotonic int64 with atomic updates. The Set and Max
// mutators carry the obs.Recorder semantics (absolute counters and
// high-water marks); Prometheus exposition still reports the metric as
// a counter. All methods no-op on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Set stores v.
func (c *Counter) Set(v int64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Max raises the value to v if v is larger.
func (c *Counter) Max(v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 with atomic updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with atomic hot-path
// updates. Bounds are inclusive upper bounds in ascending order; an
// implicit +Inf bucket catches the tail. Observations are int64 (the
// pipeline measures cycles, nanoseconds, and counts).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, float64(v))
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start (factor > 1): start, start*factor, ... — the standard shape for
// latency and cycle-count distributions spanning orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key builds the registry index key: name plus canonical label pairs.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name
	for _, l := range labels {
		k += "\x00" + l.Name + "\x01" + l.Value
	}
	return k
}

// Registry holds registered metrics in registration order (so snapshot
// and exposition output are deterministic). Registration takes a lock;
// updates on the returned instruments are lock-free atomics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
	help    map[string]string // first help string per family name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric), help: make(map[string]string)}
}

// register finds or creates a metric, instrument included, under the
// registry lock — concurrent first-use of one name races otherwise.
func (r *Registry) register(name, help string, kind Kind, labels []Label, bounds []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: append([]Label(nil), labels...)}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		b := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(b) {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, b))
		}
		m.hist = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
	return m
}

// Counter returns the named counter, registering it on first use.
// Re-requesting the same name and labels returns the same instrument.
// Safe on a nil registry (returns a nil instrument whose methods
// no-op), so instrumented code never guards the registry itself.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, labels, nil).counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, labels, nil).gauge
}

// Histogram returns the named histogram, registering it with the given
// bucket upper bounds on first use. Later calls reuse the first
// registration's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram, labels, bounds).hist
}

// MetricSnapshot is one metric's point-in-time reading.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	// Value is the counter/gauge reading.
	Value int64 `json:"value,omitempty"`
	// Histogram readings.
	Count        int64     `json:"count,omitempty"`
	Sum          int64     `json:"sum,omitempty"`
	Bounds       []float64 `json:"bounds,omitempty"`
	BucketCounts []int64   `json:"bucket_counts,omitempty"`
}

// Snapshot returns every metric's current reading in registration
// order. Individual reads are atomic; the snapshot as a whole is not a
// consistent cut (updates may land between reads), which is the usual
// contract for scrape-style metrics.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Labels: m.labels}
		switch m.kind {
		case KindCounter:
			s.Value = m.counter.Value()
		case KindGauge:
			s.Value = m.gauge.Value()
		case KindHistogram:
			s.Count = m.hist.count.Load()
			s.Sum = m.hist.sum.Load()
			s.Bounds = m.hist.bounds
			s.BucketCounts = make([]int64, len(m.hist.counts))
			for i := range m.hist.counts {
				s.BucketCounts[i] = m.hist.counts[i].Load()
			}
		}
		out = append(out, s)
	}
	return out
}

// Delta returns cur minus prev, matched by name and labels: the
// interval reading between two snapshots. Metrics absent from prev are
// returned as-is; gauges are passed through at their current value
// (deltas of instantaneous values are not meaningful).
func Delta(cur, prev []MetricSnapshot) []MetricSnapshot {
	idx := make(map[string]*MetricSnapshot, len(prev))
	for i := range prev {
		idx[metricKey(prev[i].Name, prev[i].Labels)] = &prev[i]
	}
	out := make([]MetricSnapshot, len(cur))
	for i := range cur {
		d := cur[i]
		p, ok := idx[metricKey(d.Name, d.Labels)]
		if ok && d.Kind != KindGauge.String() {
			d.Value -= p.Value
			d.Count -= p.Count
			d.Sum -= p.Sum
			if len(p.BucketCounts) == len(d.BucketCounts) {
				bc := append([]int64(nil), d.BucketCounts...)
				for j := range bc {
					bc[j] -= p.BucketCounts[j]
				}
				d.BucketCounts = bc
			}
		}
		out[i] = d
	}
	return out
}

// Inf is the +Inf bucket bound alias used in exposition.
var inf = math.Inf(1)
