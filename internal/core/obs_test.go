package core

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"repro/internal/drivers"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prov"
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
//   - every non-root punched query was spawned first,
//
// and that the registry and the probe, attached beside the recording,
// agree with it (checkFolds).
//
// Run under -race by `make race` along with the rest of this package.
func TestAsyncTraceOrdering(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("toastmon", "PnpIrpCompletion", false).Config)
	rec := &obs.Recording{}
	m := obs.NewMetrics()
	probe := &obs.Probe{}
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    32,
		MaxIterations: 1 << 19,
		Async:         true,
		Tracer:        rec,
		Metrics:       m,
		Probe:         probe,
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
	checkFolds(t, evs, snap, probe.State(), nil)
}

// checkFolds asserts that the metrics registry and the live probe,
// attached to a run beside the recording evs, are exactly folds over
// it: each folded counter is the count (or ΣN) of its event type, the
// PUNCH histograms and worker ledger count and sum the punch-ends, the
// probe's workers ran as many punches, its max depth is the deepest
// spawn and the nodes it calls dead are exactly killed. The provenance
// counters count the summary events: reads, scans and the adds of a
// query.
func checkFolds(t *testing.T, evs []obs.Event, snap *obs.Snapshot, state *obs.StateSnapshot, killed []int) {
	t.Helper()
	count := map[obs.EventType]int64{}
	var gcd, rewakes, bytes, costSum, wallSum, depth, scans, warm int64
	for _, ev := range evs {
		count[ev.Type]++
		switch ev.Type {
		case obs.EvSumRead:
			scans += min(ev.N, 1)
		case obs.EvSumAdd:
			if ev.Query == query.NoParent {
				warm++
			}
		case obs.EvGC:
			gcd += ev.N
		case obs.EvWake:
			rewakes += min(ev.N, 1)
		case obs.EvGossipSend:
			bytes += ev.N
		case obs.EvPunchEnd:
			costSum += ev.Cost
			wallSum += ev.N
		case obs.EvSpawn:
			depth = max(depth, ev.N)
		}
	}
	ends := count[obs.EvPunchEnd]
	for name, want := range map[string]int64{
		"queries_spawned": count[obs.EvSpawn], "queries_done": count[obs.EvDone],
		"queries_gcd": gcd, "queries_blocked": count[obs.EvBlock],
		"wakes": count[obs.EvWake] - rewakes, "rewakes": rewakes,
		"steals_succeeded": count[obs.EvSteal], "punch_invocations": ends,
		"gossip_deliveries": count[obs.EvGossipSend], "gossip_bytes": bytes,
		"node_kills": count[obs.EvNodeKill], "coalesce_hits": count[obs.EvCoalesce],
		"prov_summary_reads": count[obs.EvSumRead] - scans, "prov_proc_reads": scans,
		"prov_summary_writes": count[obs.EvSumAdd] - warm,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, the stream says %d", name, got, want)
		}
	}
	if h := snap.PunchCost; h.Count != ends || h.Sum != costSum {
		t.Errorf("punch-cost histogram count/sum = %d/%d, punch-ends %d with Σcost %d", h.Count, h.Sum, ends, costSum)
	}
	if h := snap.PunchWallNs; h.Count != ends || h.Sum != wallSum {
		t.Errorf("punch-wall histogram count/sum = %d/%d, punch-ends %d with Σwall %d", h.Count, h.Sum, ends, wallSum)
	}
	var punches, steals int64
	for _, w := range snap.Workers {
		punches += w.Punches
		steals += w.Steals
	}
	if punches != ends || steals != count[obs.EvSteal] {
		t.Errorf("worker ledger: %d punches, %d steals; the stream has %d and %d", punches, steals, ends, count[obs.EvSteal])
	}
	if got := state.TotalPunches(); got != ends {
		t.Errorf("probe counts %d punches, the stream %d", got, ends)
	}
	if state.Forest.MaxDepth != depth {
		t.Errorf("probe max depth = %d, deepest spawn %d", state.Forest.MaxDepth, depth)
	}
	var dead []int
	for _, n := range state.Nodes {
		if n.Dead {
			dead = append(dead, n.Node)
		}
	}
	if !slices.Equal(dead, killed) {
		t.Errorf("probe says nodes %v dead, killed were %v", dead, killed)
	}
}

// TestFoldsAgreeWithEvents runs a corpus program on the barrier engine,
// the streaming engine and a cluster that loses node 1 at round 2, each
// collecting provenance with a recording, a registry and a probe
// attached, and checks that the registry, the probe and the provenance
// are folds over the recorded stream: a fold of the recording, made
// after the run, writes the same provenance bytes as the run's own.
func TestFoldsAgreeWithEvents(t *testing.T) {
	src, err := os.ReadFile("../../testdata/corpus/bug_deep_call.bolt")
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(string(src))
	q0 := AssertionQuestion(prog)
	runs := map[string]func(obs.Tracer, *obs.Metrics, *obs.Probe) ([]int, *prov.Provenance){
		"barrier": func(tr obs.Tracer, m *obs.Metrics, p *obs.Probe) ([]int, *prov.Provenance) {
			res := New(prog, Options{Punch: maymust.New(), MaxThreads: 4, Tracer: tr, Metrics: m, Probe: p, CollectProvenance: true}).Run(q0)
			return nil, res.Provenance
		},
		"async": func(tr obs.Tracer, m *obs.Metrics, p *obs.Probe) ([]int, *prov.Provenance) {
			res := New(prog, Options{Punch: maymust.New(), MaxThreads: 4, Async: true, Tracer: tr, Metrics: m, Probe: p, CollectProvenance: true}).Run(q0)
			return nil, res.Provenance
		},
		"dist": func(tr obs.Tracer, m *obs.Metrics, p *obs.Probe) ([]int, *prov.Provenance) {
			res := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 3, ThreadsPerNode: 2, Tracer: tr, Metrics: m, Probe: p,
				Faults: &Faults{KillNode: 1, KillRound: 2}, CollectProvenance: true}).Run(q0)
			if len(res.KilledNodes) != 1 {
				t.Fatalf("killed nodes %v, want [1]", res.KilledNodes)
			}
			return res.KilledNodes, res.Provenance
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			rec, m, p := &obs.Recording{}, obs.NewMetrics(), &obs.Probe{}
			killed, got := run(rec, m, p)
			if p.State().Forest.MaxDepth < 2 {
				t.Fatalf("max depth %d: the program exercises too little", p.State().Forest.MaxDepth)
			}
			evs, snap := rec.Events(), m.Snapshot()
			checkFolds(t, evs, snap, p.State(), killed)
			if snap.Counters["prov_summary_reads"] == 0 || snap.Counters["prov_summary_writes"] == 0 {
				t.Fatalf("no summary traffic in the stream: %v", snap.Counters)
			}
			fold := prov.NewFold()
			for _, ev := range evs {
				fold.Event(ev)
			}
			var want, have bytes.Buffer
			if err := fold.Finish(got.Verdict).WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if err := got.WriteJSON(&have); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have.Bytes(), want.Bytes()) {
				t.Fatalf("Result.Provenance is not the fold of the stream:\n run  %s\n fold %s", have.Bytes(), want.Bytes())
			}
		})
	}
}

// TestBarrierMetricsGossipFree: the single-machine engines must leave the
// cluster counters untouched, and the snapshot must fold in sumdb_*, the
// fill of the solver's memos and the shelf's takes.
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
	if snap.Counters["shelf_taken"] < 1 {
		t.Errorf("shelf_taken = %d: no query started from a shelved region graph", snap.Counters["shelf_taken"])
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
// and aggregates summary-database traffic and the shelves' takes across
// nodes.
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
	if snap.Counters["shelf_taken"] < 1 {
		t.Errorf("shelf_taken = %d summed over the nodes: no query started from a shelved region graph", snap.Counters["shelf_taken"])
	}
}
