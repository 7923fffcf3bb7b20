package obs

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestLiveStateSnapshot: worker cells and max depth are folds over the
// event stream, the forest and coalescer gauges are the last published
// value.
func TestLiveStateSnapshot(t *testing.T) {
	ls := NewLiveState("async", 4, 0, time.Now())
	ls.Publish(Gauges{
		VTime: 123, Iterations: 7,
		Forest:    ForestState{Live: 10, Ready: 3, Blocked: 5, Running: 2, Spawned: 20, Done: 9, MaxDepth: 99},
		Coalescer: CoalescerState{InflightKeys: 2, WaiterEdges: 5, Hits: 11},
	})
	for _, ev := range []Event{
		{Type: EvSpawn, N: 3}, {Type: EvSpawn, N: 6}, {Type: EvSpawn, N: 4}, // a shallower spawn must not lower the max
		{Type: EvPunchStart, Worker: 1, Proc: "reach", Query: 42},
		{Type: EvPunchEnd, Worker: 1, Proc: "reach", Query: 42},
		{Type: EvPunchStart, Worker: 1, Proc: "reach", Query: 43},
		{Type: EvDone, Worker: 0, Query: 42}, // not a worker-phase event
	} {
		ls.Event(ev)
	}
	ls.WorkerStealing(2)
	ls.WorkerParked(3)

	s := ls.Snapshot()
	if s.Engine != "async" || s.VTime != 123 || s.Iterations != 7 {
		t.Fatalf("header = %s/%d/%d; want async/123/7", s.Engine, s.VTime, s.Iterations)
	}
	f := s.Forest
	if f.Live != 10 || f.Ready != 3 || f.Blocked != 5 || f.Running != 2 || f.Spawned != 20 || f.Done != 9 || f.MaxDepth != 6 {
		t.Fatalf("forest = %+v (max depth is the fold, not the published value)", f)
	}
	c := s.Coalescer
	if c.InflightKeys != 2 || c.WaiterEdges != 5 || c.Hits != 11 {
		t.Fatalf("coalescer = %+v", c)
	}
	if len(s.Workers) != 4 {
		t.Fatalf("workers = %d; want 4", len(s.Workers))
	}
	w1 := s.Workers[1]
	if w1.Phase != "running" || w1.Proc != "reach" || w1.Query != 43 || w1.Punches != 1 {
		t.Fatalf("worker 1 = %+v", w1)
	}
	if s.Workers[0].Phase != "idle" || s.Workers[2].Phase != "stealing" || s.Workers[3].Phase != "parked" {
		t.Fatalf("worker phases = %s/%s/%s", s.Workers[0].Phase, s.Workers[2].Phase, s.Workers[3].Phase)
	}
	if got := s.TotalPunches(); got != 1 {
		t.Fatalf("TotalPunches = %d; want 1", got)
	}
}

func TestLiveStateClampsNegativeGauges(t *testing.T) {
	ls := NewLiveState("async", 0, 0, time.Now())
	// Derived blocked = live - ready - running can go transiently
	// negative on skewed reads; the gauge must clamp, not publish junk.
	ls.Publish(Gauges{Forest: ForestState{Live: 1, Ready: 2, Blocked: -3, Running: -1}})
	f := ls.Snapshot().Forest
	if f.Blocked != 0 || f.Running != 0 || f.Live != 1 || f.Ready != 2 {
		t.Fatalf("forest = %+v; want blocked/running clamped to 0", f)
	}
}

// TestLiveStateNodes: per-node occupancy, backlog and busy ticks are
// published; death is the node-kill fold; a cluster event's (node,
// worker) lands on the node's own worker cell.
func TestLiveStateNodes(t *testing.T) {
	ls := NewLiveState("dist", 6, 3, time.Now())
	ls.Publish(Gauges{Nodes: []NodeState{
		{Live: 4, Ready: 1, Blocked: 3, Summaries: 10, BusyTicks: 100, Dead: true},
		{GossipBacklog: 2, BusyTicks: 50},
		{BusyTicks: 30},
	}})
	ls.Event(Event{Type: EvNodeKill, Node: 2})
	ls.Event(Event{Type: EvNodeKill, Node: 9}) // out of range: ignored
	ls.Event(Event{Type: EvPunchStart, Node: 2, Worker: 1, Proc: "p", Query: 8})

	s := ls.Snapshot()
	if len(s.Nodes) != 3 {
		t.Fatalf("nodes = %d; want 3", len(s.Nodes))
	}
	n0 := s.Nodes[0]
	if n0.Live != 4 || n0.Ready != 1 || n0.Blocked != 3 || n0.Summaries != 10 || n0.BusyTicks != 100 || n0.Dead {
		t.Fatalf("node 0 = %+v (a published Dead is ignored)", n0)
	}
	if s.Nodes[1].GossipBacklog != 2 || s.Nodes[1].Node != 1 {
		t.Fatalf("node 1 = %+v; want backlog 2", s.Nodes[1])
	}
	if !s.Nodes[2].Dead {
		t.Fatal("node 2 should be dead")
	}
	// Skew over the two live nodes: max 100 / avg 75.
	if want := 100.0 / 75.0; s.NodeSkew < want-1e-9 || s.NodeSkew > want+1e-9 {
		t.Fatalf("skew = %v; want %v (dead node excluded)", s.NodeSkew, want)
	}
	// Workers map onto nodes by slot: 6 workers / 3 nodes = 2 per node.
	if s.Workers[5].Node != 2 || s.Workers[0].Node != 0 {
		t.Fatalf("worker->node mapping = %d,%d; want 2,0", s.Workers[5].Node, s.Workers[0].Node)
	}
	if w := s.Workers[5]; w.Phase != "running" || w.Query != 8 {
		t.Fatalf("worker 5 = %+v; want node 2's slot 1 running query 8", w)
	}
}

func TestLiveStateNilAndOutOfRange(t *testing.T) {
	var ls *LiveState
	ls.WorkerStealing(0)
	ls.WorkerParked(0)
	if ls.Snapshot() != nil {
		t.Fatal("nil LiveState must snapshot to nil")
	}

	real := NewLiveState("async", 1, 0, time.Now())
	real.Event(Event{Type: EvPunchStart, Worker: 5, Proc: "p"}) // out of range: ignored, not a panic
	real.Event(Event{Type: EvPunchEnd, Worker: -1})
	real.Event(Event{Type: EvNodeKill, Node: 0}) // no nodes allocated
	real.Publish(Gauges{Nodes: []NodeState{{Live: 1}}})
	s := real.Snapshot()
	if len(s.Workers) != 1 || s.Workers[0].Phase != "idle" || s.Nodes != nil {
		t.Fatalf("snapshot = %+v; want one idle worker, no nodes", s)
	}
}

func TestProbeLifecycle(t *testing.T) {
	var p Probe
	if p.State() != nil || p.Phase() != RunIdle || p.Runs() != 0 {
		t.Fatal("fresh probe must be idle with no state")
	}

	ls := NewLiveState("barrier", 2, 0, time.Now())
	ls.Publish(Gauges{VTime: 55, Iterations: 1})
	p.Attach(func() *StateSnapshot { return ls.Snapshot() })
	if p.Phase() != RunActive {
		t.Fatalf("phase = %v; want active", p.Phase())
	}
	s := p.State()
	if s == nil || s.Phase != "running" || s.VTime != 55 {
		t.Fatalf("live state = %+v; want running at vtime 55", s)
	}

	ls.Publish(Gauges{VTime: 99, Iterations: 2})
	p.Detach()
	if p.Phase() != RunFinished || p.Runs() != 1 {
		t.Fatalf("after detach: phase %v runs %d; want finished/1", p.Phase(), p.Runs())
	}
	final := p.State()
	if final == nil || final.Phase != "finished" || final.VTime != 99 {
		t.Fatalf("final state = %+v; want frozen finished snapshot at vtime 99", final)
	}
	// The frozen snapshot must be a copy per call, not shared storage.
	final.VTime = -1
	if again := p.State(); again.VTime != 99 {
		t.Fatalf("frozen snapshot mutated through a reader: vtime %d", again.VTime)
	}

	// A second run reuses the probe.
	ls2 := NewLiveState("async", 2, 0, time.Now())
	p.Attach(func() *StateSnapshot { return ls2.Snapshot() })
	if s := p.State(); s.Engine != "async" || s.Runs != 1 {
		t.Fatalf("second run state = %+v", s)
	}
	p.Detach()
	if p.Runs() != 2 {
		t.Fatalf("runs = %d; want 2", p.Runs())
	}
}

func TestProbeNil(t *testing.T) {
	var p *Probe
	p.Attach(func() *StateSnapshot { return nil })
	p.Detach()
	if p.State() != nil || p.Phase() != RunIdle || p.Runs() != 0 {
		t.Fatal("nil probe must be inert")
	}
}

func TestStateSnapshotJSONShape(t *testing.T) {
	ls := NewLiveState("async", 1, 0, time.Now())
	ls.Event(Event{Type: EvPunchStart, Proc: "main", Query: 1})
	s := ls.Snapshot()
	s.Phase = RunActive.String()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine", "phase", "vtime", "iterations", "forest", "coalescer", "workers"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", key, b)
		}
	}
}

func TestDiagnoseAllBlocked(t *testing.T) {
	cur := &StateSnapshot{
		Forest:  ForestState{Live: 5, Blocked: 5},
		Workers: []WorkerState{{Phase: "parked"}, {Phase: "parked"}},
	}
	r := Diagnose(nil, cur, 6*time.Second)
	if r.Reason != "all-blocked" {
		t.Fatalf("reason = %q; want all-blocked (%s)", r.Reason, r.Detail)
	}
	if r.Stalled != 6*time.Second || r.State != cur {
		t.Fatalf("report = %+v", r)
	}
}

func TestDiagnoseStraggler(t *testing.T) {
	ws := make([]WorkerState, 8)
	for i := range ws {
		ws[i] = WorkerState{Worker: i, Phase: "idle"}
	}
	ws[6] = WorkerState{Worker: 6, Phase: "running", Proc: "slow", Query: 3}
	ws[1] = WorkerState{Worker: 1, Phase: "running", Proc: "slow2", Query: 4}
	cur := &StateSnapshot{Forest: ForestState{Live: 2, Running: 2}, Workers: ws}
	r := Diagnose(nil, cur, time.Second)
	if r.Reason != "straggler" {
		t.Fatalf("reason = %q; want straggler (%s)", r.Reason, r.Detail)
	}
	if len(r.Stragglers) != 2 || r.Stragglers[0].Worker != 1 || r.Stragglers[1].Worker != 6 {
		t.Fatalf("stragglers = %+v; want workers 1,6 sorted", r.Stragglers)
	}
}

func TestDiagnoseNoProgress(t *testing.T) {
	cur := &StateSnapshot{
		Forest:  ForestState{Live: 4, Ready: 4},
		Workers: []WorkerState{{Phase: "running"}, {Phase: "running"}},
	}
	if r := Diagnose(nil, cur, time.Second); r.Reason != "no-progress" {
		t.Fatalf("reason = %q; want no-progress", r.Reason)
	}
	if r := Diagnose(nil, nil, time.Second); r.Reason != "no-progress" || r.State != nil {
		t.Fatalf("nil snapshot should yield bare no-progress, got %+v", r)
	}
}

func TestStallReportString(t *testing.T) {
	r := StallReport{
		Reason:  "straggler",
		Detail:  "1 of 8 workers still running",
		Stalled: 2 * time.Second,
		State: &StateSnapshot{
			Forest:    ForestState{Live: 3, Blocked: 2, Running: 1, Done: 4, Spawned: 9},
			Coalescer: CoalescerState{InflightKeys: 1, WaiterEdges: 2},
		},
		Stragglers: []WorkerState{{Worker: 6, Proc: "slow", Query: 3, Punches: 7}},
		Flight:     &FlightSnapshot{Events: make([]Event, 3), Total: 10, Dropped: 7},
	}
	out := r.String()
	for _, want := range []string{"stall detected (straggler)", "forest:", "coalescer:", "worker 6", "3 events retained, 7 dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// fakeRun drives a Probe the way an engine does, with progress under
// test control.
type fakeRun struct {
	vtime atomic.Int64
	ls    *LiveState
}

func newFakeRun(p *Probe) *fakeRun {
	fr := &fakeRun{ls: NewLiveState("async", 2, 0, time.Now())}
	p.Attach(func() *StateSnapshot {
		fr.ls.Publish(Gauges{VTime: fr.vtime.Load()})
		return fr.ls.Snapshot()
	})
	return fr
}

func TestWatchdogFiresOncePerEpisode(t *testing.T) {
	var p Probe
	fr := newFakeRun(&p)
	fr.vtime.Store(1)

	reports := make(chan StallReport, 16)
	flight := NewFlightRecorder(8)
	flight.Event(Event{Type: EvSpawn})
	wd := NewWatchdog(WatchdogConfig{
		Probe:      &p,
		Flight:     flight,
		Tick:       2 * time.Millisecond,
		StallAfter: 10 * time.Millisecond,
		OnStall:    func(r StallReport) { reports <- r },
	})
	wd.Start()
	defer wd.Stop()

	var rep StallReport
	select {
	case rep = <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a flatlined run")
	}
	if rep.Reason == "" || rep.State == nil {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Flight == nil || rep.Flight.Total != 1 {
		t.Fatalf("flight dump not attached: %+v", rep.Flight)
	}
	if rep.Stalled < 10*time.Millisecond {
		t.Fatalf("stalled = %v; want >= stall window", rep.Stalled)
	}

	// Still wedged: the same episode must not fire again.
	select {
	case r := <-reports:
		t.Fatalf("watchdog re-fired within one episode: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	// Progress resumes, then flatlines again: a second episode fires.
	fr.vtime.Store(2)
	select {
	case <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not re-arm after progress")
	}

	st := wd.Status()
	if !st.Enabled || st.Stalls != 2 || st.Samples == 0 || st.LastReason == "" {
		t.Fatalf("status = %+v; want enabled with 2 stalls", st)
	}
}

func TestWatchdogIgnoresIdleProbe(t *testing.T) {
	var p Probe // nothing ever attaches
	fired := make(chan StallReport, 1)
	wd := NewWatchdog(WatchdogConfig{
		Probe:      &p,
		Tick:       time.Millisecond,
		StallAfter: 3 * time.Millisecond,
		OnStall:    func(r StallReport) { fired <- r },
	})
	wd.Start()
	defer wd.Stop()
	select {
	case r := <-fired:
		t.Fatalf("watchdog fired with no run attached: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if st := wd.Status(); st.Stalls != 0 || st.StuckFor != 0 {
		t.Fatalf("status = %+v; want no stalls", st)
	}
}

func TestWatchdogStopIdempotent(t *testing.T) {
	var wd *Watchdog
	wd.Start() // nil-safe
	wd.Stop()
	wd = NewWatchdog(WatchdogConfig{Probe: &Probe{}})
	wd.Stop() // never started
	wd.Start()
	wd.Start() // double start is a no-op
	wd.Stop()
	wd.Stop()
}
