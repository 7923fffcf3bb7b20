package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: a nil registry must be inert — Inc, Add, EnsureWorkers
// and the snapshots are no-ops rather than panics, since the engines
// call them unconditionally behind one branch.
func TestNilSafety(t *testing.T) {
	var m *Metrics
	m.Inc(IdleParks)
	m.Add(GossipRounds, 7)
	m.EnsureWorkers(1, 8)
	m.ObserveConeSize(3)
	if got := m.Get(IdleParks); got != 0 {
		t.Errorf("nil registry Get = %d, want 0", got)
	}
	if m.Snapshot() != nil {
		t.Error("nil registry Snapshot != nil")
	}
	var s *Snapshot
	if s.Flatten() != nil {
		t.Error("nil snapshot Flatten != nil")
	}
}

// TestCountersAndWorkers: the registry folds the event stream — each
// lifecycle counter from its event type, the PUNCH histograms and the
// worker ledger from punch-end (cost in Cost, wall nanoseconds in N),
// a rewake from the mark in a wake's N — and maps a cluster event's
// (node, worker) onto the worker table.
func TestCountersAndWorkers(t *testing.T) {
	m := NewMetrics()
	m.EnsureWorkers(2, 2)
	for _, ev := range []Event{
		{Type: EvSpawn}, {Type: EvSpawn, N: 4}, {Type: EvSpawn},
		{Type: EvWake}, {Type: EvWake, N: 1}, {Type: EvWake},
		{Type: EvGC, N: 5}, {Type: EvGC, N: 2},
		{Type: EvSteal, Node: 1, Worker: 1, N: 0},
		{Type: EvPunchEnd, Worker: 1, Cost: 50, N: 2000},
		{Type: EvPunchEnd, Worker: 1, Cost: 70, N: 3000},
		{Type: EvPunchEnd, Node: 1, Worker: 1, Cost: 10, N: 1000},
		{Type: EvPunchEnd, Node: 7, Worker: 0, Cost: 1}, // no such cell: counted, not booked
		{Type: EvGossipSend, N: 40}, {Type: EvGossipRecv, N: 40},
		{Type: EvNodeKill}, {Type: EvCoalesce}, {Type: EvDone}, {Type: EvBlock}, {Type: EvReady},
	} {
		m.Event(ev)
	}
	m.Inc(StealsAttempted)

	snap := m.Snapshot()
	for name, want := range map[string]int64{
		"queries_spawned": 3, "wakes": 2, "rewakes": 1, "queries_gcd": 7,
		"steals_succeeded": 1, "steals_attempted": 1, "punch_invocations": 4,
		"gossip_deliveries": 1, "gossip_bytes": 40, "node_kills": 1,
		"coalesce_hits": 1, "queries_done": 1, "queries_blocked": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(snap.Workers))
	}
	w1 := snap.Workers[1]
	if w1.Punches != 2 || w1.BusyTicks != 120 || w1.BusyWallNs != 5000 {
		t.Errorf("worker 1 = %+v, want 2 punches / 120 busy ticks / 5000 ns", w1)
	}
	if w3 := snap.Workers[3]; w3.Steals != 1 || w3.Punches != 1 {
		t.Errorf("worker 3 (node 1, slot 1) = %+v, want 1 steal, 1 punch", w3)
	}
	flat := snap.Flatten()
	if flat["punch_cost_sum"] != 131 || flat["punch_wall_ns_sum"] != 6000 {
		t.Errorf("punch_cost_sum = %d, punch_wall_ns_sum = %d, want 131, 6000", flat["punch_cost_sum"], flat["punch_wall_ns_sum"])
	}
	if flat["workers"] != 4 {
		t.Errorf("workers = %d, want 4", flat["workers"])
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000, -5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1006 {
		t.Errorf("sum = %d, want 1006", s.Sum)
	}
	if s.Max != 1000 {
		t.Errorf("max = %d, want 1000", s.Max)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 6 {
		t.Errorf("bucket total = %d, want 6", bucketTotal)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if got := h.count.Load(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
	if got := h.max.Load(); got != 999 {
		t.Errorf("max = %d, want 999", got)
	}
}

// TestChromeTracerSpans: WriteChrome turns punch-start/punch-end pairs
// into complete spans and everything else into instants, and the
// document validates.
func TestChromeTracerSpans(t *testing.T) {
	evs := []Event{
		{Type: EvSpawn, Query: 1, Proc: "main", Wall: 0},
		{Type: EvPunchStart, Query: 1, Proc: "main", Worker: 0, Wall: 10 * time.Microsecond},
		{Type: EvPunchEnd, Query: 1, Proc: "main", Worker: 0, Cost: 5, Wall: 30 * time.Microsecond},
		{Type: EvPunchStart, Query: 2, Proc: "helper", Worker: 1, Node: 1, Wall: 12 * time.Microsecond},
		{Type: EvPunchEnd, Query: 2, Proc: "helper", Worker: 1, Node: 1, Cost: 3, Wall: 22 * time.Microsecond},
		{Type: EvDone, Query: 1, Proc: "main", Wall: 31 * time.Microsecond},
	}
	var buf bytes.Buffer
	spans, err := WriteChrome(&buf, evs)
	if err != nil {
		t.Fatal(err)
	}
	if spans != 2 {
		t.Errorf("spans = %d, want 2", spans)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n != 2 {
		t.Errorf("validated spans = %d, want 2", n)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"ph":"X"`, `"done"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
	// The document must be a plain JSON array, an empty stream included.
	var generic []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	buf.Reset()
	if _, err := WriteChrome(&buf, nil); err != nil || strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty stream = %q, %v; want []", buf.String(), err)
	}
}

// TestChromeTracerLoneEnd: an end without a start synthesizes a
// zero-length span instead of corrupting the document.
func TestChromeTracerLoneEnd(t *testing.T) {
	var buf bytes.Buffer
	spans, err := WriteChrome(&buf, []Event{{Type: EvPunchEnd, Query: 9, Proc: "p", Wall: 5 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	if spans != 1 {
		t.Errorf("spans = %d, want 1", spans)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("validate: %v", err)
	}
}

// TestValidateRejectsOverlap: partially overlapping spans on one track
// are a malformed trace and must be rejected.
func TestValidateRejectsOverlap(t *testing.T) {
	doc := `[
		{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},
		{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":0}
	]`
	if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
		t.Error("overlapping spans validated, want error")
	}
	// The same spans on different tracks are fine.
	doc2 := `[
		{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},
		{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}
	]`
	if _, err := ValidateChromeTrace([]byte(doc2)); err != nil {
		t.Errorf("disjoint tracks rejected: %v", err)
	}
	if _, err := ValidateChromeTrace([]byte("not json")); err == nil {
		t.Error("garbage validated, want error")
	}
}

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if s := ty.String(); s == "" || strings.HasPrefix(s, "EventType(") {
			t.Errorf("event type %d has no name", ty)
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		if s := c.String(); s == "" || s == "counter_unknown" {
			t.Errorf("counter %d has no name", c)
		}
	}
}

func TestRecording(t *testing.T) {
	var r Recording
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Event(Event{Type: EvSpawn, Worker: g})
			}
		}(g)
	}
	wg.Wait()
	if total, dropped := r.Counts(); total != 400 || dropped != 0 || r.Capacity() != 0 {
		t.Errorf("counts = %d/%d, capacity %d; want 400/0, unbounded", total, dropped, r.Capacity())
	}
	evs := r.Events()
	evs[0].Worker = 99 // the returned slice is a copy
	if r.Events()[0].Worker == 99 {
		t.Error("Events returned the internal slice, not a copy")
	}
}
