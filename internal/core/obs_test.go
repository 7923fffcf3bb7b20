package core

import (
	"testing"

	"repro/internal/drivers"
	"repro/internal/obs"
	"repro/internal/punch/maymust"
	"repro/internal/query"
)

// TestAsyncTraceOrdering runs the streaming engine at 32 workers with a
// recording tracer and asserts the stream's ordering invariants. The
// async scheduler emits every event while holding its mutex, so the
// recorded order is the total order of scheduler decisions:
//
//   - virtual time is monotone over the whole stream,
//   - a punch-end never precedes its punch-start (per worker track the
//     two strictly alternate),
//   - a query is GC'd only after it is Done,
//   - every non-root punched query was spawned first.
//
// Run under -race by `make race` along with the rest of this package.
func TestAsyncTraceOrdering(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("toastmon", "PnpIrpCompletion", false).Config)
	rec := &obs.Recording{}
	m := obs.NewMetrics()
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    32,
		MaxIterations: 1 << 19,
		Async:         true,
		Tracer:        rec,
		Metrics:       m,
	}).Run(AssertionQuestion(prog))
	if res.Verdict == Unknown {
		t.Fatalf("verdict Unknown (stop %v)", res.StopReason)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}

	var lastVT int64
	spawned := map[query.ID]bool{}
	done := map[query.ID]bool{}
	inPunch := map[int]query.ID{} // worker -> open punch query
	starts, ends := 0, 0
	for i, ev := range evs {
		if ev.VTime < lastVT {
			t.Fatalf("event %d (%v): virtual time went backwards (%d < %d)", i, ev.Type, ev.VTime, lastVT)
		}
		lastVT = ev.VTime
		switch ev.Type {
		case obs.EvSpawn:
			spawned[ev.Query] = true
		case obs.EvPunchStart:
			starts++
			if !spawned[ev.Query] {
				t.Fatalf("event %d: punch-start for query %d before its spawn", i, ev.Query)
			}
			if open, ok := inPunch[ev.Worker]; ok {
				t.Fatalf("event %d: worker %d started query %d with query %d still open", i, ev.Worker, ev.Query, open)
			}
			inPunch[ev.Worker] = ev.Query
		case obs.EvPunchEnd:
			ends++
			open, ok := inPunch[ev.Worker]
			if !ok {
				t.Fatalf("event %d: punch-end on worker %d with no punch-start", i, ev.Worker)
			}
			if open != ev.Query {
				t.Fatalf("event %d: worker %d ended query %d but %d is open", i, ev.Worker, ev.Query, open)
			}
			delete(inPunch, ev.Worker)
		case obs.EvDone:
			done[ev.Query] = true
		case obs.EvGC:
			if !done[ev.Query] {
				t.Fatalf("event %d: GC of query %d before it was done", i, ev.Query)
			}
		}
	}
	if starts == 0 {
		t.Fatal("no punch spans recorded")
	}
	// The run is cancelled when the root answers, so in-flight punches at
	// that instant legitimately never emit an end; starts can only exceed
	// ends by queries still open at halt.
	if ends > starts {
		t.Errorf("punch ends %d > starts %d", ends, starts)
	}

	snap := res.Metrics
	if snap == nil {
		t.Fatal("metrics snapshot missing")
	}
	if got := snap.Counters["queries_done"]; got != res.DoneQueries {
		t.Errorf("queries_done = %d, want %d", got, res.DoneQueries)
	}
	if snap.Counters["punch_invocations"] < int64(ends) {
		t.Errorf("punch_invocations = %d < punch-end events %d",
			snap.Counters["punch_invocations"], ends)
	}
	if snap.MakespanTicks != res.VirtualTicks {
		t.Errorf("makespan_ticks = %d, want %d", snap.MakespanTicks, res.VirtualTicks)
	}
	if len(snap.Workers) != 32 {
		t.Errorf("worker cells = %d, want 32", len(snap.Workers))
	}
}

// TestBarrierMetricsGossipFree: the single-machine engines must leave the
// cluster counters untouched, and the snapshot must fold in sumdb_* and
// the fill of the solver's memos.
func TestBarrierMetricsGossipFree(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("toastmon", "PendedCompletedRequest", false).Config)
	m := obs.NewMetrics()
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    8,
		MaxIterations: 1 << 19,
		Metrics:       m,
	}).Run(AssertionQuestion(prog))
	snap := res.Metrics
	if snap == nil {
		t.Fatal("metrics snapshot missing")
	}
	for _, k := range []string{"gossip_rounds", "gossip_deliveries", "gossip_bytes", "node_kills", "steals_attempted"} {
		if snap.Counters[k] != 0 {
			t.Errorf("%s = %d on the barrier engine, want 0", k, snap.Counters[k])
		}
	}
	if sp := snap.Counters["queries_spawned"]; sp < 1 || sp > res.TotalQueries {
		t.Errorf("queries_spawned = %d, want in [1, %d]", sp, res.TotalQueries)
	}
	if _, ok := snap.Counters["sumdb_added"]; !ok {
		t.Error("snapshot missing sumdb_added")
	}
	for _, name := range []string{"sat", "cube", "entail", "step", "simplify"} {
		n, max := snap.Counters["solver_memo_"+name+"_entries"], snap.Counters["solver_memo_"+name+"_capacity"]
		if n < 1 || n > max {
			t.Errorf("%s memo holds %d of %d after a Table-1 check", name, n, max)
		}
		if _, ok := snap.Counters["solver_memo_"+name+"_turned_away"]; !ok {
			t.Errorf("snapshot missing solver_memo_%s_turned_away", name)
		}
	}
}

// TestDistributedMetrics: the cluster run populates gossip accounting
// and aggregates summary-database traffic across nodes.
func TestDistributedMetrics(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("toastmon", "PendedCompletedRequest", false).Config)
	m := obs.NewMetrics()
	res := NewDistributed(prog, DistOptions{
		Punch:          maymust.New(),
		Nodes:          3,
		ThreadsPerNode: 4,
		Metrics:        m,
		Faults:         &Faults{KillNode: 2, KillRound: 2},
	}).Run(AssertionQuestion(prog))
	snap := res.Metrics
	if snap == nil {
		t.Fatal("metrics snapshot missing")
	}
	if res.SyncExchanges > 0 && snap.Counters["gossip_rounds"] != int64(res.SyncExchanges) {
		t.Errorf("gossip_rounds = %d, want %d", snap.Counters["gossip_rounds"], res.SyncExchanges)
	}
	if len(res.KilledNodes) == 1 && snap.Counters["node_kills"] != 1 {
		t.Errorf("node_kills = %d, want 1", snap.Counters["node_kills"])
	}
	if snap.Counters["gossip_deliveries"] > 0 && snap.Counters["gossip_bytes"] == 0 {
		t.Error("gossip deliveries counted but no bytes")
	}
	if snap.MakespanTicks != res.VirtualTicks {
		t.Errorf("makespan_ticks = %d, want %d", snap.MakespanTicks, res.VirtualTicks)
	}
}
