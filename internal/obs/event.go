package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Reserved per-PE occupancy values in timeline events. Non-negative
// values are MIMD state numbers.
const (
	PEDone = -1 // the PE's process ended
	PEIdle = -2 // the PE is in the free pool
	PEWait = -3 // the PE is waiting at a barrier
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EventMeta is one meta-state execution: the state, its live
	// census, and the aggregate that chose the next state.
	EventMeta EventKind = iota + 1
	// EventExit is the final meta-state execution, after which every PE
	// is done.
	EventExit
	// EventTimeline is a per-PE occupancy row captured at meta-state
	// entry.
	EventTimeline
)

// String returns the JSONL wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case EventMeta:
		return "meta"
	case EventExit:
		return "exit"
	case EventTimeline:
		return "timeline"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one typed record of the execution trace stream. The SIMD VM
// emits EventTimeline at meta-state entry and EventMeta/EventExit after
// dispatch; sinks render or encode them.
type Event struct {
	Kind EventKind
	// Step is the meta-state execution ordinal (0-based); Cycle is the
	// control-unit cycle count after the state executed.
	Step  int64
	Cycle int64
	// Meta is the meta state ID; Set its MIMD state set rendered as
	// text (e.g. "{1,2,3}").
	Meta int
	Set  string
	// APC is the aggregate program counter observed at dispatch, Live
	// the number of live PEs, Next the chosen successor (EventMeta).
	APC  string
	Live int
	Next int
	// PEs is the per-PE occupancy (EventTimeline): MIMD state number,
	// or PEDone/PEIdle/PEWait.
	PEs []int
}

// Sink consumes trace events.
//
// Concurrency contract: the engines emit from a single VM goroutine, so
// the sinks in this package (TextSink, JSONLSink) are NOT
// concurrency-safe — unsynchronized Emit calls from multiple goroutines
// race on the underlying writers. A sink shared across goroutines (for
// example, one stream collecting several engine runs) must be wrapped
// in a SyncSink.
type Sink interface {
	Emit(e *Event) error
}

// SyncSink serializes Emit calls to the wrapped sink with a mutex,
// making any Sink safe to share across goroutines. Events from
// different goroutines interleave at Emit granularity — whole lines,
// never partial writes.
type SyncSink struct {
	mu   sync.Mutex
	Sink Sink
}

// NewSyncSink wraps s; a nil inner sink drops events.
func NewSyncSink(s Sink) *SyncSink { return &SyncSink{Sink: s} }

// Emit forwards to the wrapped sink under the lock.
func (s *SyncSink) Emit(e *Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Sink == nil {
		return nil
	}
	return s.Sink.Emit(e)
}

// TextSink renders events in the human-readable text format that
// predates the event stream, byte-for-byte: EventMeta/EventExit lines
// go to Trace, EventTimeline rows to Timeline. A nil writer drops that
// event class.
type TextSink struct {
	Trace    io.Writer
	Timeline io.Writer
}

// ReadsRows reports whether s reads EventTimeline rows: false for a nil
// sink and for a TextSink with no Timeline writer, true for every other
// sink. A row is O(N) in the machine width, so an engine builds rows
// only for a sink that reads them and refuses such a sink on a machine
// too wide for them.
func ReadsRows(s Sink) bool {
	if s == nil {
		return false
	}
	if ts, ok := s.(*TextSink); ok {
		return ts.Timeline != nil
	}
	return true
}

// Emit writes the event in legacy text form.
func (s *TextSink) Emit(e *Event) error {
	switch e.Kind {
	case EventMeta:
		if s.Trace == nil {
			return nil
		}
		_, err := fmt.Fprintf(s.Trace, "[%6d] ms%-4d %-16s apc=%-16s live=%-3d -> ms%d\n",
			e.Cycle, e.Meta, e.Set, e.APC, e.Live, e.Next)
		return err
	case EventExit:
		if s.Trace == nil {
			return nil
		}
		_, err := fmt.Fprintf(s.Trace, "[%6d] ms%-4d %-16s -> exit (all PEs done)\n",
			e.Cycle, e.Meta, e.Set)
		return err
	case EventTimeline:
		if s.Timeline == nil {
			return nil
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "[%5d] ms%-4d |", e.Step, e.Meta)
		for _, pc := range e.PEs {
			switch pc {
			case PEDone:
				sb.WriteString(" -")
			case PEIdle:
				sb.WriteString(" .")
			case PEWait:
				sb.WriteString(" w")
			default:
				fmt.Fprintf(&sb, " %d", pc)
			}
		}
		sb.WriteString(" |\n")
		_, err := io.WriteString(s.Timeline, sb.String())
		return err
	}
	return nil
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	Kind  string `json:"kind"`
	Step  int64  `json:"step"`
	Cycle int64  `json:"cycle"`
	Meta  int    `json:"meta"`
	Set   string `json:"set,omitempty"`
	APC   string `json:"apc,omitempty"`
	Live  *int   `json:"live,omitempty"`
	Next  *int   `json:"next,omitempty"`
	PEs   []int  `json:"pes,omitempty"`
}

// JSONLSink encodes each event as one JSON object per line.
type JSONLSink struct {
	W io.Writer
}

// Emit writes the event as a JSON line.
func (s *JSONLSink) Emit(e *Event) error {
	je := jsonEvent{
		Kind:  e.Kind.String(),
		Step:  e.Step,
		Cycle: e.Cycle,
		Meta:  e.Meta,
		Set:   e.Set,
		APC:   e.APC,
		PEs:   e.PEs,
	}
	if e.Kind == EventMeta {
		live, next := e.Live, e.Next
		je.Live = &live
		je.Next = &next
	}
	b, err := json.Marshal(&je)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.W.Write(b)
	return err
}
