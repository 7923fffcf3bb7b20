package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/query"
)

// wireEvent is the JSONL wire form of an Event: one JSON object per
// line, with the event type spelled out as its String name so the
// stream is greppable and stable across EventType renumbering. A
// summary event's summary is rendered as text, for a reader: it does
// not load back.
type wireEvent struct {
	Type   string `json:"type"`
	Query  int64  `json:"query"`
	Parent int64  `json:"parent,omitempty"`
	Proc   string `json:"proc,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Node   int    `json:"node,omitempty"`
	VTime  int64  `json:"vtime"`
	WallNs int64  `json:"wall_ns,omitempty"`
	Cost   int64  `json:"cost,omitempty"`
	N      int64  `json:"n,omitempty"`
	Sum    string `json:"sum,omitempty"`
}

// ParseEventType resolves an event-type name produced by
// EventType.String back to its value.
func ParseEventType(name string) (EventType, bool) {
	for t, n := range eventNames {
		if n == name {
			return EventType(t), true
		}
	}
	return 0, false
}

// MarshalEventJSON renders one event in the JSONL wire form (no
// trailing newline).
func MarshalEventJSON(ev Event) ([]byte, error) {
	sum := ""
	switch s := ev.Sum; {
	case s == nil:
	case s.Pre == nil || s.Post == nil:
		sum = s.Proc // a ForProc scan names only the procedure
	default:
		sum = s.String()
	}
	return json.Marshal(wireEvent{
		Type:   ev.Type.String(),
		Query:  int64(ev.Query),
		Parent: int64(ev.Parent),
		Proc:   ev.Proc,
		Worker: ev.Worker,
		Node:   ev.Node,
		VTime:  ev.VTime,
		WallNs: int64(ev.Wall),
		Cost:   ev.Cost,
		N:      ev.N,
		Sum:    sum,
	})
}

// UnmarshalEventJSON parses one JSONL line back into an Event, without
// the summary of a summary event.
func UnmarshalEventJSON(line []byte) (Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return Event{}, fmt.Errorf("obs: bad JSONL event: %w", err)
	}
	t, ok := ParseEventType(w.Type)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event type %q", w.Type)
	}
	return Event{
		Type:   t,
		Query:  query.ID(w.Query),
		Parent: query.ID(w.Parent),
		Proc:   w.Proc,
		Worker: w.Worker,
		Node:   w.Node,
		VTime:  w.VTime,
		Wall:   time.Duration(w.WallNs),
		Cost:   w.Cost,
		N:      w.N,
	}, nil
}

// JSONLTracer is a Tracer that streams events to a writer as JSON
// Lines: one event object per line, buffered, mutex-guarded. It holds
// no per-run state, so arbitrarily long runs stream in constant memory;
// internal/obs/analyze loads the format back and boltprof -report chrome
// converts it. The zero-alloc-when-disabled contract is unchanged: engines
// never construct an Event unless a tracer is attached.
type JSONLTracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	n   int64
	err error
}

// NewJSONLTracer returns a tracer streaming to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Event implements Tracer. The first write error is retained and
// reported by Flush; later events are dropped.
func (t *JSONLTracer) Event(ev Event) {
	data, err := MarshalEventJSON(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Flush drains the buffer and returns the first error encountered by
// any write (or the flush itself).
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Events returns the number of events written so far.
func (t *JSONLTracer) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Tee fans events out to every non-nil tracer. It returns a nil
// interface when no tracer remains, so engine-side `!= nil` guards
// keep their disabled-cost contract.
func Tee(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeTracer(live)
}

type teeTracer []Tracer

func (t teeTracer) Event(ev Event) {
	for _, tr := range t {
		tr.Event(ev)
	}
}
