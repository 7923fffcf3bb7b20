package obs

import (
	"io"
	"sync"
)

// DefaultFlightCapacity is the ring size NewFlightRecorder(0) uses —
// large enough to hold the last few scheduling generations of a busy
// 32-thread run, small enough that a dump stays skimmable.
const DefaultFlightCapacity = 4096

// Recording is the one in-memory event buffer, a Tracer safe for
// concurrent use. The zero value keeps every event (tests, TraceTo's
// Chrome conversion, the benchmark); NewFlightRecorder gives a bounded
// ring of the most recent events — the always-on "black box" a live
// engine can afford to keep, whose writes are one short critical
// section with no allocation once the ring is full. When the ring
// wraps, the oldest events are overwritten and counted as dropped.
type Recording struct {
	mu    sync.Mutex
	buf   []Event
	limit int   // ring size; 0 keeps everything
	next  int   // index of the oldest event once the ring is full
	total int64 // events ever recorded
}

// NewFlightRecorder returns a ring keeping the last capacity events
// (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *Recording {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Recording{buf: make([]Event, 0, capacity), limit: capacity}
}

// Event implements Tracer.
func (r *Recording) Event(ev Event) {
	r.mu.Lock()
	if r.limit == 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % r.limit
	}
	r.total++
	r.mu.Unlock()
}

// FlightSnapshot is a point-in-time copy of a Recording: the retained
// events oldest-first, plus the totals that say how much history a ring
// has shed.
type FlightSnapshot struct {
	// Events holds the retained events, oldest first.
	Events []Event
	// Total is the number of events ever recorded; Dropped how many of
	// them were overwritten before this snapshot (Total - len(Events)).
	Total   int64
	Dropped int64
}

// Snapshot copies the buffer out oldest-first. Nil-receiver safe (an
// empty snapshot), so callers can hold an optional recorder.
func (r *Recording) Snapshot() FlightSnapshot {
	if r == nil {
		return FlightSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := make([]Event, 0, len(r.buf))
	evs = append(append(evs, r.buf[r.next:]...), r.buf[:r.next]...)
	return FlightSnapshot{Events: evs, Total: r.total, Dropped: r.total - int64(len(r.buf))}
}

// Events returns a copy of the retained events in arrival order.
func (r *Recording) Events() []Event { return r.Snapshot().Events }

// Counts returns the events ever recorded and how many of them a ring
// has overwritten, read together without copying the buffer (0, 0 on
// nil).
func (r *Recording) Counts() (total, dropped int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.total - int64(len(r.buf))
}

// Capacity returns the ring size (0 on nil and for an unbounded
// recording).
func (r *Recording) Capacity() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// WriteJSONL dumps the current snapshot to w in the JSONL wire form —
// the format boltprof and internal/obs/analyze load — and returns how
// many events were written. The snapshot is taken up front, so the dump
// is internally consistent even while the run keeps recording.
func (r *Recording) WriteJSONL(w io.Writer) (int, error) {
	s := r.Snapshot()
	for i, ev := range s.Events {
		line, err := MarshalEventJSON(ev)
		if err != nil {
			return i, err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return i, err
		}
	}
	return len(s.Events), nil
}
