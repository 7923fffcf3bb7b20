package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/summary"
)

// TestEventJSONRoundTrip: every event type survives the JSONL wire form
// with all fields intact, but a summary event's summary, which is
// rendered as text and does not load back.
func TestEventJSONRoundTrip(t *testing.T) {
	for typ := EvSpawn; int(typ) < len(eventNames); typ++ {
		in := Event{
			Type:   typ,
			Query:  42,
			Parent: 7,
			Proc:   "dispatch",
			Worker: 3,
			Node:   2,
			VTime:  12345,
			Wall:   1500 * time.Nanosecond,
			Cost:   77,
			N:      9,
		}
		data, err := MarshalEventJSON(in)
		if err != nil {
			t.Fatalf("%v: marshal: %v", typ, err)
		}
		out, err := UnmarshalEventJSON(data)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", typ, err)
		}
		if out != in {
			t.Errorf("%v: round trip changed event:\n in  %+v\n out %+v", typ, in, out)
		}
	}
	sum := summary.Summary{Kind: summary.NotMay, Proc: "leaf", Pre: logic.True, Post: logic.False}
	for _, in := range []Event{
		{Type: EvSumRead, Query: 4, Proc: "dispatch", Sum: &sum},
		{Type: EvSumAdd, Query: query.NoParent, Proc: "leaf", Sum: &sum},
		{Type: EvSumRead, Query: 4, Proc: "dispatch", N: 1, Sum: &summary.Summary{Proc: "leaf"}},
	} {
		data, err := MarshalEventJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		text := sum.String()
		if in.N == 1 {
			text = "leaf"
		}
		var w wireEvent
		if err := json.Unmarshal(data, &w); err != nil || w.Sum != text {
			t.Errorf("%v renders as %s, want the summary %q in it", in.Type, data, text)
		}
		out, err := UnmarshalEventJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		in.Sum = nil
		if out != in {
			t.Errorf("%v: round trip changed event:\n in  %+v\n out %+v", in.Type, in, out)
		}
	}
}

// TestEventJSONZeroFields: omitempty must not lose the zero-but-meaningful
// fields (query 0, worker 0, vtime 0 are all real values).
func TestEventJSONZeroFields(t *testing.T) {
	in := Event{Type: EvPunchEnd, Query: 0, Worker: 0, VTime: 0, Cost: 5}
	data, err := MarshalEventJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalEventJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed event: in %+v out %+v", in, out)
	}
}

func TestParseEventTypeUnknown(t *testing.T) {
	if _, ok := ParseEventType("no-such-event"); ok {
		t.Error("ParseEventType accepted an unknown name")
	}
	if _, err := UnmarshalEventJSON([]byte(`{"type":"no-such-event"}`)); err == nil {
		t.Error("UnmarshalEventJSON accepted an unknown type")
	}
	if _, err := UnmarshalEventJSON([]byte(`{not json`)); err == nil {
		t.Error("UnmarshalEventJSON accepted malformed JSON")
	}
}

// TestJSONLTracer: events stream out one per line and parse back in
// order.
func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	want := []Event{
		{Type: EvSpawn, Query: 1, Parent: -1, Proc: "main", VTime: 0},
		{Type: EvPunchStart, Query: 1, Proc: "main", Worker: 0, VTime: 0},
		{Type: EvPunchEnd, Query: 1, Proc: "main", Worker: 0, VTime: 10, Cost: 10},
		{Type: EvDone, Query: 1, Proc: "main", VTime: 10},
	}
	for _, ev := range want {
		tr.Event(ev)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if tr.Events() != int64(len(want)) {
		t.Fatalf("Events() = %d, want %d", tr.Events(), len(want))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		got, err := UnmarshalEventJSON([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("line %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errShortWrite
	}
	w.left -= len(p)
	return len(p), nil
}

var errShortWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "injected write failure" }

// TestJSONLTracerRetainsFirstError: a failing sink surfaces via Flush
// and later events are dropped without panicking.
func TestJSONLTracerRetainsFirstError(t *testing.T) {
	tr := NewJSONLTracer(&failWriter{left: 8})
	for i := 0; i < 10000; i++ {
		tr.Event(Event{Type: EvPunchEnd, Query: 1, VTime: int64(i)})
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush reported no error from a failing writer")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil {
		t.Error("Tee() of nothing should be the nil interface")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) should be the nil interface")
	}
	a := &Recording{}
	if got := Tee(nil, a); got != Tracer(a) {
		t.Error("Tee of a single live tracer should return it unwrapped")
	}
	b := &Recording{}
	tee := Tee(a, nil, b)
	tee.Event(Event{Type: EvSpawn, Query: 5})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("tee fan-out: a=%d b=%d events, want 1 each", len(a.Events()), len(b.Events()))
	}
}
