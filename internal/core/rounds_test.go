package core

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/must"
	"repro/internal/query"
	"repro/internal/summary"
)

// The barrier engine is the batch loop over one node, and a one-node
// cluster runs that same loop: these tests pin where the two meet.

// fanPunch scripts a root that asks fan children at once (cost 1), each
// child answering in one slice of cost 10, and the root then finishing
// (cost 1). Its virtual time depends only on how many simulated cores a
// round's batch is scheduled on. Only the root writes asked, and its
// slices never overlap.
type fanPunch struct {
	fan   int
	asked *bool
}

func newFanPunch(fan int) fanPunch { return fanPunch{fan, new(bool)} }

func (p fanPunch) Name() string { return "fan" }

func (p fanPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	if qr.Parent != query.NoParent {
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 10}
	}
	if !*p.asked {
		*p.asked = true
		var kids []*query.Query
		for i := 0; i < p.fan; i++ {
			kids = append(kids, ctx.Alloc.New(qr.ID, summary.Question{Proc: string(rune('a' + i))}))
		}
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: kids, Cost: 1}
	}
	qr.State, qr.Outcome = query.Done, query.Unreachable
	return punch.Result{Self: qr, Cost: 1}
}

// stuckPunch blocks every query without asking anything: no child can
// ever wake it.
type stuckPunch struct{}

func (stuckPunch) Name() string { return "stuck" }

func (stuckPunch) Step(_ *punch.Context, qr *query.Query) punch.Result {
	qr.State = query.Blocked
	return punch.Result{Self: qr, Cost: 3}
}

// spinPunch never finishes: every slice comes back Ready.
type spinPunch struct{}

func (spinPunch) Name() string { return "spin" }

func (spinPunch) Step(_ *punch.Context, qr *query.Query) punch.Result {
	qr.State = query.Ready
	return punch.Result{Self: qr, Cost: 1}
}

var mainOnly = parser.MustParse(`proc main { }`)

// TestRoundsCores: a round's batch is list-scheduled on the cores the
// loop is given — the barrier engine's VirtualCores, a cluster node's
// ThreadsPerNode.
func TestRoundsCores(t *testing.T) {
	q := summary.Question{Proc: "main"}
	for _, c := range []struct {
		name  string
		ticks int64
		run   func() int64
	}{
		{"barrier, 4 threads on 1 core", 1 + 4*10 + 1, func() int64 {
			return New(mainOnly, Options{Punch: newFanPunch(4), MaxThreads: 4, VirtualCores: 1}).Run(q).VirtualTicks
		}},
		{"barrier, 4 threads on 2 cores", 1 + 2*10 + 1, func() int64 {
			return New(mainOnly, Options{Punch: newFanPunch(4), MaxThreads: 4, VirtualCores: 2}).Run(q).VirtualTicks
		}},
		{"barrier, 4 threads on 4 cores", 1 + 10 + 1, func() int64 {
			return New(mainOnly, Options{Punch: newFanPunch(4), MaxThreads: 4}).Run(q).VirtualTicks
		}},
		{"one-node cluster, 4 threads", 1 + 10 + 1, func() int64 {
			return NewDistributed(mainOnly, DistOptions{Punch: newFanPunch(4), Nodes: 1, ThreadsPerNode: 4}).Run(q).VirtualTicks
		}},
	} {
		if got := c.run(); got != c.ticks {
			t.Errorf("%s: %d ticks, want %d", c.name, got, c.ticks)
		}
	}
}

// TestRoundsOneNodeNeverGossips: a node without a peer has nobody to
// exchange summaries with. An all-blocked one-node run is Deadlocked at
// once — on the barrier engine and on a one-node cluster alike — with no
// exchange counted, charged or metered, and nothing is routed.
func TestRoundsOneNodeNeverGossips(t *testing.T) {
	q := summary.Question{Proc: "main"}
	bar := New(mainOnly, Options{Punch: stuckPunch{}}).Run(q)
	m := obs.NewMetrics()
	dist := NewDistributed(mainOnly, DistOptions{Punch: stuckPunch{}, Nodes: 1, ThreadsPerNode: 1, SyncCost: 50, Metrics: m}).Run(q)
	if bar.StopReason != StopDeadlocked || dist.StopReason != StopDeadlocked {
		t.Fatalf("stop reasons: barrier %v, one-node cluster %v; want deadlocked", bar.StopReason, dist.StopReason)
	}
	if dist.SyncExchanges != 0 || dist.Metrics.Counters["gossip_rounds"] != 0 {
		t.Errorf("one node gossiped: %d exchanges, gossip_rounds %d", dist.SyncExchanges, dist.Metrics.Counters["gossip_rounds"])
	}
	if bar.VirtualTicks != 3 || dist.VirtualTicks != 3 {
		t.Errorf("virtual ticks: barrier %d, one-node cluster %d; want the one slice's 3", bar.VirtualTicks, dist.VirtualTicks)
	}
	if bar.Iterations != 1 || dist.Rounds != 1 {
		t.Errorf("barrier %d iterations, one-node cluster %d rounds; want 1", bar.Iterations, dist.Rounds)
	}
	if router(newNodes(1)) != nil {
		t.Error("a one-node cluster routes its procedures")
	}
	// Two nodes stuck alike force one exchange, which moves nothing.
	two := NewDistributed(mainOnly, DistOptions{Punch: stuckPunch{}, Nodes: 2, ThreadsPerNode: 1, SyncEvery: 1 << 20, SyncCost: 50}).Run(q)
	if two.StopReason != StopDeadlocked || two.SyncExchanges != 1 || two.VirtualTicks != 3+50 {
		t.Errorf("two nodes: %v after %d exchanges at %d ticks; want deadlocked after 1 at %d", two.StopReason, two.SyncExchanges, two.VirtualTicks, 3+50)
	}
}

// TestRoundsOneBound: MaxIterations and MaxRounds are the same round
// bound, and MaxVirtualTicks applies wherever it is set.
func TestRoundsOneBound(t *testing.T) {
	q := summary.Question{Proc: "main"}
	bar := New(mainOnly, Options{Punch: spinPunch{}, MaxIterations: 5}).Run(q)
	dist := NewDistributed(mainOnly, DistOptions{Punch: spinPunch{}, Nodes: 1, ThreadsPerNode: 1, MaxRounds: 5}).Run(q)
	if bar.StopReason != StopEventBudget || bar.Iterations != 5 {
		t.Errorf("barrier: %v after %d iterations, want the round budget after 5", bar.StopReason, bar.Iterations)
	}
	if dist.StopReason != StopEventBudget || dist.Rounds != 5 {
		t.Errorf("one-node cluster: %v after %d rounds, want the round budget after 5", dist.StopReason, dist.Rounds)
	}
	ticks := New(mainOnly, Options{Punch: spinPunch{}, MaxIterations: 100, MaxVirtualTicks: 3}).Run(q)
	if ticks.StopReason != StopTickBudget || ticks.VirtualTicks != 3 {
		t.Errorf("tick budget: %v at %d ticks, want the tick budget at 3", ticks.StopReason, ticks.VirtualTicks)
	}
}

// TestRoundsSamples: the loop samples once per round — Ready before
// selection, the batch it processed, the queries live after REDUCE — and
// Iterations and PeakReady are read off those samples.
func TestRoundsSamples(t *testing.T) {
	res := New(mainOnly, Options{Punch: newFanPunch(4), MaxThreads: 2}).Run(summary.Question{Proc: "main"})
	want := []IterSample{
		{Iter: 0, VTime: 0, StageCost: 1, Ready: 1, Processed: 1, Live: 5, DoneSoFar: 0, NewQueries: 4},
		{Iter: 1, VTime: 1, StageCost: 10, Ready: 4, Processed: 2, Live: 3, DoneSoFar: 2},
		// The root, woken by the first child retired, finishes beside the
		// third child: the root is answered, so nothing is collected.
		{Iter: 2, VTime: 11, StageCost: 10, Ready: 3, Processed: 2, Live: 3, DoneSoFar: 4},
	}
	if res.Verdict != Safe || len(res.Trace) != len(want) {
		t.Fatalf("%v with %d samples, want Safe with %d: %+v", res.Verdict, len(res.Trace), len(want), res.Trace)
	}
	for i := range want {
		if res.Trace[i] != want[i] {
			t.Errorf("sample %d: %+v, want %+v", i, res.Trace[i], want[i])
		}
	}
	if res.Iterations != 3 || res.PeakReady != 4 {
		t.Errorf("%d iterations, peak ready %d; want 3 and 4", res.Iterations, res.PeakReady)
	}
}

// TestBarrierIsOneNodeCluster: on one thread the barrier engine and a
// one-node, one-thread cluster run the same loop, so on every corpus
// program under every analysis they return the same Result, field for
// field, metrics and provenance included. Three kinds of field are set
// apart: what no second run repeats (wall time, the wall-clock histogram
// and the workers' wall ledger); the formulas of Summaries, which live in
// each run's own intern table and are compared as text; and the
// cluster's own Rounds, PerNodePeakLive and PerNodeSummaries, which the
// barrier engine leaves zero and the one node must fill with Iterations,
// PeakLive and the summary count. On four threads a stage's slices share
// SUMDB as they run, so ticks and queries are draws; only the may-must
// verdicts are compared there.
func TestBarrierIsOneNodeCluster(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	analyses := map[string]func() punch.Punch{
		"may":      func() punch.Punch { return may.New() },
		"must":     func() punch.Punch { return must.New() },
		"may-must": func() punch.Punch { return maymust.New() },
	}
	const budget = 400 // rounds; the may runs that never converge stop here
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(string(src))
		q := AssertionQuestion(prog)
		for an, newPunch := range analyses {
			name := filepath.Base(f) + ", " + an
			bar := New(prog, Options{Punch: newPunch(), MaxThreads: 1, MaxIterations: budget,
				Metrics: obs.NewMetrics(), CollectProvenance: true}).Run(q)
			dist := NewDistributed(prog, DistOptions{Punch: newPunch(), Nodes: 1, ThreadsPerNode: 1, MaxRounds: budget,
				Metrics: obs.NewMetrics(), CollectProvenance: true}).Run(q)
			if dist.Rounds != dist.Iterations || !slices.Equal(dist.PerNodePeakLive, []int{dist.PeakLive}) ||
				!slices.Equal(dist.PerNodeSummaries, []int{len(dist.Summaries)}) {
				t.Errorf("%s: one-node cluster: %d rounds, per-node peaks %v, summaries %v; want %d, [%d], [%d]", name,
					dist.Rounds, dist.PerNodePeakLive, dist.PerNodeSummaries, dist.Iterations, dist.PeakLive, len(dist.Summaries))
			}
			dist.Rounds, dist.PerNodePeakLive, dist.PerNodeSummaries = 0, nil, nil
			barSums, distSums := repeatable(&bar), repeatable(&dist)
			if !slices.Equal(barSums, distSums) {
				t.Errorf("%s: summaries differ: barrier %q, one-node cluster %q", name, barSums, distSums)
			}
			bv, dv := reflect.ValueOf(bar), reflect.ValueOf(dist)
			for i := 0; i < bv.NumField(); i++ {
				if b, d := bv.Field(i).Interface(), dv.Field(i).Interface(); !reflect.DeepEqual(b, d) {
					t.Errorf("%s: %s differs: barrier %+v, one-node cluster %+v", name, bv.Type().Field(i).Name, b, d)
				}
			}
		}
		bar := New(prog, Options{Punch: maymust.New(), MaxThreads: 4, MaxIterations: 60000}).Run(q)
		dist := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 1, ThreadsPerNode: 4, MaxRounds: 60000}).Run(q)
		if bar.Verdict == Unknown || bar.Verdict != dist.Verdict {
			t.Errorf("%s, may-must on 4 threads: barrier %v, one-node cluster %v", filepath.Base(f), bar.Verdict, dist.Verdict)
		}
	}
}

// repeatable clears from r what a second run of the same question cannot
// repeat: its wall-clock readings, and its summaries, whose formulas live
// in the run's own intern table. It returns the summaries as text.
func repeatable(r *Result) []string {
	r.WallTime = 0
	if m := r.Metrics; m != nil {
		m.PunchWallNs = obs.HistSnapshot{}
		for i := range m.Workers {
			m.Workers[i].BusyWallNs = 0
		}
	}
	var sums []string
	for _, s := range r.Summaries {
		sums = append(sums, s.String())
	}
	r.Summaries = nil
	return sums
}
