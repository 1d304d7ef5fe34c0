package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestTextSinkMetaFormat(t *testing.T) {
	var tr bytes.Buffer
	s := &TextSink{Trace: &tr}
	err := s.Emit(&Event{
		Kind: EventMeta, Step: 0, Cycle: 49, Meta: 0,
		Set: "{0}", APC: "{2,3}", Live: 6, Next: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[    49] ms0    {0}              apc={2,3}            live=6   -> ms3\n"
	if tr.String() != want {
		t.Errorf("meta line:\n got %q\nwant %q", tr.String(), want)
	}
}

func TestTextSinkExitFormat(t *testing.T) {
	var tr bytes.Buffer
	s := &TextSink{Trace: &tr}
	if err := s.Emit(&Event{Kind: EventExit, Cycle: 169, Meta: 4, Set: "{1}"}); err != nil {
		t.Fatal(err)
	}
	want := "[   169] ms4    {1}              -> exit (all PEs done)\n"
	if tr.String() != want {
		t.Errorf("exit line:\n got %q\nwant %q", tr.String(), want)
	}
}

func TestTextSinkTimelineFormat(t *testing.T) {
	var tl bytes.Buffer
	s := &TextSink{Timeline: &tl}
	err := s.Emit(&Event{
		Kind: EventTimeline, Step: 3, Meta: 2,
		PEs: []int{PEDone, 12, PEWait, PEIdle},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[    3] ms2    | - 12 w . |\n"
	if tl.String() != want {
		t.Errorf("timeline row:\n got %q\nwant %q", tl.String(), want)
	}
}

func TestTextSinkNilWritersDrop(t *testing.T) {
	s := &TextSink{}
	for _, k := range []EventKind{EventMeta, EventExit, EventTimeline} {
		if err := s.Emit(&Event{Kind: k}); err != nil {
			t.Errorf("nil-writer emit of %v errored: %v", k, err)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := &JSONLSink{W: &buf}
	events := []*Event{
		{Kind: EventTimeline, Step: 0, Meta: 1, PEs: []int{0, PEIdle}},
		{Kind: EventMeta, Step: 0, Cycle: 10, Meta: 1, Set: "{0}", APC: "{1}", Live: 2, Next: 2},
		{Kind: EventExit, Step: 1, Cycle: 20, Meta: 2, Set: "{1}"},
	}
	for _, e := range events {
		if err := s.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["kind"] != "timeline" {
		t.Errorf("line 0 kind = %v", rec["kind"])
	}
	if _, hasLive := rec["live"]; hasLive {
		t.Error("timeline event carries live field")
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["kind"] != "meta" || rec["live"] != float64(2) || rec["next"] != float64(2) {
		t.Errorf("meta line decoded to %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["kind"] != "exit" || rec["cycle"] != float64(20) {
		t.Errorf("exit line decoded to %v", rec)
	}
}

func TestReadsRows(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Sink
		want bool
	}{
		{"nil", nil, false},
		{"text trace", &TextSink{Trace: io.Discard}, false},
		{"empty text", &TextSink{}, false},
		{"text timeline", &TextSink{Timeline: io.Discard}, true},
		{"text both", &TextSink{Trace: io.Discard, Timeline: io.Discard}, true},
		{"jsonl", &JSONLSink{W: io.Discard}, true},
		{"sync text trace", NewSyncSink(&TextSink{Trace: io.Discard}), true},
	} {
		if got := ReadsRows(c.s); got != c.want {
			t.Errorf("ReadsRows(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSyncSinkConcurrent shares one sink across goroutines the way a
// multi-engine run would, under the race detector (make check runs
// this package with -race): every event must land as a whole line,
// never interleaved mid-write.
func TestSyncSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewSyncSink(&JSONLSink{W: &buf})
	var wg sync.WaitGroup
	const workers, events = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				e := &Event{Kind: EventMeta, Step: int64(i), Cycle: int64(w), Meta: w, Set: "{0}", Next: 1}
				if err := s.Emit(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != workers*events {
		t.Fatalf("got %d lines, want %d", len(lines), workers*events)
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved write produced bad JSON line %q: %v", line, err)
		}
	}
}

func TestSyncSinkNilInner(t *testing.T) {
	if err := NewSyncSink(nil).Emit(&Event{Kind: EventExit}); err != nil {
		t.Fatal(err)
	}
}
