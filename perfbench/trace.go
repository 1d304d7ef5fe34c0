package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"msc/internal/telemetry"
)

// tracer records the benchmark's own spans: one root span per op and a
// child per call into a layer's entry point, every span carrying the
// op's id. Storage and the Perfetto export are telemetry.Tracer's.
// Calls timed outside any op span (set-up reference runs, the CSI and
// hash-search replays) are recorded as root spans without an op id.
type tracer struct {
	t *telemetry.Tracer

	mu sync.Mutex
	// acc sums durations measured with the clock rather than spans,
	// for calls too many and too small to give each a span.
	acc map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t: telemetry.NewTracer(), acc: map[string]time.Duration{}}
}

// opSpan opens op seq's root span.
func (tr *tracer) opSpan(seq int) *telemetry.Span {
	if tr == nil {
		return nil
	}
	return tr.t.StartSpan("op", 0, telemetry.Int("op", int64(seq)))
}

// call times f as a child span of parent (a root span when parent is
// nil) named after the layer entry point it calls. With a nil tracer f
// just runs.
func (tr *tracer) call(parent *telemetry.Span, name string, f func()) {
	if tr == nil {
		f()
		return
	}
	var s *telemetry.Span
	if parent != nil {
		s = parent.StartChild(name)
	} else {
		s = tr.t.StartSpan(name, 0)
	}
	f()
	s.End()
}

// add accumulates a clock-measured duration under a layer span name.
func (tr *tracer) add(name string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.acc[name] += d
	tr.mu.Unlock()
}

func (tr *tracer) accumulated(name string) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.acc[name]
}

func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.t.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRec is one finished span as the analysis needs it.
type spanRec struct {
	ID     int64          `json:"span"`
	Parent int64          `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	Dur    int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs"`
}

// spans reads back every finished span through the tracer's JSONL
// export.
func (tr *tracer) spans() ([]spanRec, error) {
	var buf bytes.Buffer
	if err := tr.t.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	var out []spanRec
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("reading spans: %w", err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other or run past their parent; only the covered part of the
// parent's own interval counts, once.
func selfTimes(spans []spanRec) map[int64]int64 {
	byID := make(map[int64]*spanRec, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.Start+s.Dur, p.Start+p.Dur)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur - covered(kids[s.ID])
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, x := range iv {
		switch {
		case !started || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			started = true
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// layerTimes sums self time per span name, and reports the op count
// and the op roots' summed duration and self time (the part of an op
// no layer call covers).
type layerTimes struct {
	self map[string]time.Duration
	// dur and calls sum whole durations and count spans per name.
	dur          map[string]time.Duration
	calls        map[string]int
	ops          int
	opWall       time.Duration
	unattributed time.Duration
}

func analyze(spans []spanRec) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{self: map[string]time.Duration{}, dur: map[string]time.Duration{}, calls: map[string]int{}}
	for _, s := range spans {
		d := time.Duration(self[s.ID])
		lt.dur[s.Name] += time.Duration(s.Dur)
		lt.calls[s.Name]++
		if s.Name == "op" && s.Parent == 0 {
			lt.ops++
			lt.opWall += time.Duration(s.Dur)
			lt.unattributed += d
			continue
		}
		lt.self[s.Name] += d
	}
	return lt
}

// unattributedFrac is the share of op wall time that no layer call
// covers.
func (lt layerTimes) unattributedFrac() float64 {
	if lt.opWall <= 0 {
		return 0
	}
	return float64(lt.unattributed) / float64(lt.opWall)
}

// mean is the mean duration in ms of the spans named name: a per-call
// figure, for calls that belong to no op.
func (lt layerTimes) mean(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return ms(lt.dur[name]) / float64(lt.calls[name])
}

// perOp is the mean self time per op, in ms, of the spans with the
// given names.
func (lt layerTimes) perOp(names ...string) float64 {
	if lt.ops == 0 {
		return 0
	}
	var total time.Duration
	for _, n := range names {
		total += lt.self[n]
	}
	return ms(total) / float64(lt.ops)
}

// tracedLayers reads the traced phase back and fills the time metrics
// every workload shares.
func tracedLayers(m map[string]metric, tr *tracer) (layerTimes, error) {
	spans, err := tr.spans()
	if err != nil {
		return layerTimes{}, err
	}
	lt := analyze(spans)
	m["unattributed_frac"] = metric{lt.unattributedFrac(), "ratio"}
	return lt, nil
}
