package obs

import (
	"bufio"
	"bytes"
	"sync"
	"testing"
)

func TestFlightRecorderBelowCapacity(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		f.Event(Event{Type: EvSpawn, VTime: int64(i)})
	}
	s := f.Snapshot()
	if s.Total != 5 || s.Dropped != 0 || len(s.Events) != 5 {
		t.Fatalf("snapshot = %d events, total %d, dropped %d; want 5/5/0", len(s.Events), s.Total, s.Dropped)
	}
	for i, ev := range s.Events {
		if ev.VTime != int64(i) {
			t.Fatalf("event %d has vtime %d; want oldest-first order", i, ev.VTime)
		}
	}
}

func TestFlightRecorderOverflowKeepsNewest(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 11; i++ {
		f.Event(Event{Type: EvSpawn, VTime: int64(i)})
	}
	s := f.Snapshot()
	if s.Total != 11 {
		t.Fatalf("total = %d; want 11", s.Total)
	}
	if s.Dropped != 7 {
		t.Fatalf("dropped = %d; want 7", s.Dropped)
	}
	if len(s.Events) != 4 {
		t.Fatalf("retained %d events; want 4", len(s.Events))
	}
	for i, ev := range s.Events {
		if want := int64(7 + i); ev.VTime != want {
			t.Fatalf("event %d has vtime %d; want %d (newest 4, oldest first)", i, ev.VTime, want)
		}
	}
	if total, dropped := f.Counts(); total != 11 || dropped != 7 || f.Capacity() != 4 {
		t.Fatalf("accessors = total %d dropped %d cap %d; want 11/7/4", total, dropped, f.Capacity())
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	if got := NewFlightRecorder(0).Capacity(); got != DefaultFlightCapacity {
		t.Fatalf("default capacity = %d; want %d", got, DefaultFlightCapacity)
	}
	if got := NewFlightRecorder(-3).Capacity(); got != DefaultFlightCapacity {
		t.Fatalf("negative capacity = %d; want %d", got, DefaultFlightCapacity)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *Recording
	if s := f.Snapshot(); s.Total != 0 || len(s.Events) != 0 {
		t.Fatalf("nil snapshot = %+v; want empty", s)
	}
	if total, dropped := f.Counts(); total != 0 || dropped != 0 || f.Capacity() != 0 {
		t.Fatal("nil accessors must return zero")
	}
}

// TestFlightRecorderConcurrent exercises the ring from many writers at
// once (several runs may share one recorder); run under -race it is the
// recorder's thread-safety proof.
func TestFlightRecorderConcurrent(t *testing.T) {
	const (
		writers = 8
		each    = 500
	)
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Event(Event{Type: EvPunchStart, Worker: w, VTime: int64(i)})
				if i%17 == 0 {
					// Interleave reads with the writes.
					_ = f.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := f.Snapshot()
	if s.Total != writers*each {
		t.Fatalf("total = %d; want %d", s.Total, writers*each)
	}
	if len(s.Events) != 64 || s.Dropped != writers*each-64 {
		t.Fatalf("retained %d dropped %d; want 64 / %d", len(s.Events), s.Dropped, writers*each-64)
	}
}

func TestFlightRecorderWriteJSONL(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Event(Event{Type: EvPunchEnd, Query: 7, Proc: "p", VTime: int64(i), Cost: 3})
	}
	var buf bytes.Buffer
	n, err := f.WriteJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("wrote %d events; want 4", n)
	}
	sc := bufio.NewScanner(&buf)
	var vt int64 = 2 // events 0 and 1 were overwritten
	for sc.Scan() {
		ev, err := UnmarshalEventJSON(sc.Bytes())
		if err != nil {
			t.Fatalf("line does not round-trip: %v", err)
		}
		if ev.Type != EvPunchEnd || ev.Query != 7 || ev.Proc != "p" || ev.Cost != 3 || ev.VTime != vt {
			t.Fatalf("decoded %+v; want punch-end q7 p cost=3 vtime=%d", ev, vt)
		}
		vt++
	}
	if vt != 6 {
		t.Fatalf("decoded up to vtime %d; want 6", vt)
	}
}
