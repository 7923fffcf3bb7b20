package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drivers"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
)

func TestDistributedMatchesSingleNode(t *testing.T) {
	cases := []struct {
		src  string
		want Verdict
	}{
		{`globals g;
		  proc main { g = 0; a(); b(); assert(g <= 2); }
		  proc a { g = g + 1; }
		  proc b { g = g + 1; }`, Safe},
		{`globals g;
		  proc main { g = 0; a(); b(); assert(g <= 1); }
		  proc a { g = g + 1; }
		  proc b { g = g + 1; }`, ErrorReachable},
	}
	for i, c := range cases {
		prog := parser.MustParse(c.src)
		for _, nodes := range []int{1, 2, 4} {
			eng := NewDistributed(prog, DistOptions{
				Punch:          maymust.New(),
				Nodes:          nodes,
				ThreadsPerNode: 2,
				MaxRounds:      4000,
			})
			res := eng.Run(AssertionQuestion(prog))
			if res.Verdict != c.want {
				t.Errorf("case %d nodes=%d: verdict %v, want %v", i, nodes, res.Verdict, c.want)
			}
		}
	}
}

func TestDistributedShardsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	prog := drivers.Generate(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
	q := AssertionQuestion(prog)

	single := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 1, ThreadsPerNode: 8, MaxRounds: 1 << 18}).Run(q)
	multi := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 4, ThreadsPerNode: 8, MaxRounds: 1 << 18}).Run(q)

	if single.Verdict != Safe || multi.Verdict != Safe {
		t.Fatalf("verdicts: single=%v multi=%v", single.Verdict, multi.Verdict)
	}
	maxShard := 0
	for _, p := range multi.PerNodePeakLive {
		if p > maxShard {
			maxShard = p
		}
	}
	// The paper's prediction: sharding bounds per-machine memory. The
	// busiest shard must hold fewer live queries than the single node.
	if maxShard >= single.PerNodePeakLive[0] && single.PerNodePeakLive[0] > 2 {
		t.Errorf("no memory sharding benefit: shard peak %d vs single %d", maxShard, single.PerNodePeakLive[0])
	}
	if multi.SyncExchanges == 0 {
		t.Error("no gossip happened")
	}
}

func TestDistributedSyncLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	prog := drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	q := AssertionQuestion(prog)
	fast := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 2, ThreadsPerNode: 4, SyncEvery: 1, MaxRounds: 1 << 18}).Run(q)
	slow := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 2, ThreadsPerNode: 4, SyncEvery: 8, SyncCost: 50, MaxRounds: 1 << 18}).Run(q)
	if fast.Verdict != Safe || slow.Verdict != Safe {
		t.Fatalf("verdicts: fast=%v slow=%v", fast.Verdict, slow.Verdict)
	}
	// Staleness must never change the verdict; it may change the cost.
	t.Logf("sync every round: %d ticks; every 8 rounds: %d ticks", fast.VirtualTicks, slow.VirtualTicks)
}

// TestDistributedFaultConfluence is the acceptance criterion for the
// fault-injection layer: killing a node mid-run while dropping 20% of
// gossip deliveries (seeded) must leave every corpus verdict identical
// to the fault-free barrier engine's. Recovery = the dead node's
// summaries are re-gossiped from the replicated log and its live queries
// re-routed to the next live node on the hash ring.
func TestDistributedFaultConfluence(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want := Safe
			if strings.HasPrefix(name, "bug_") {
				want = ErrorReachable
			}
			q0 := AssertionQuestion(prog)
			barrier := New(prog, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000}).Run(q0)
			if barrier.Verdict != want {
				t.Fatalf("barrier verdict %v, want %v", barrier.Verdict, want)
			}
			dist := NewDistributed(prog, DistOptions{
				Punch:          maymust.New(),
				Nodes:          3,
				ThreadsPerNode: 4,
				MaxRounds:      60000,
				Faults:         &Faults{KillNode: 1, KillRound: 1, GossipDrop: 0.2, Seed: 42},
			}).Run(q0)
			if dist.Verdict != barrier.Verdict {
				t.Errorf("fault-injected verdict %v diverges from barrier %v (stop %v, killed %v, rerouted %d, recovered %d)",
					dist.Verdict, barrier.Verdict, dist.StopReason, dist.KilledNodes, dist.ReroutedQueries, dist.RecoveredSummaries)
			}
			// The kill fires at the start of round 1; a program answered in
			// round 0 legitimately never sees it.
			if dist.Rounds > 1 && (len(dist.KilledNodes) != 1 || dist.KilledNodes[0] != 1) {
				t.Errorf("killed nodes = %v after %d rounds, want [1]", dist.KilledNodes, dist.Rounds)
			}
		})
	}
}

// TestDistributedKillRecovery kills a node deep into a driver-sized run
// with lossy gossip and requires the verdict to survive the failover.
func TestDistributedKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	prog := drivers.Generate(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
	res := NewDistributed(prog, DistOptions{
		Punch:          maymust.New(),
		Nodes:          4,
		ThreadsPerNode: 8,
		MaxRounds:      1 << 18,
		Faults:         &Faults{KillNode: 2, KillRound: 3, GossipDrop: 0.2, Seed: 7},
	}).Run(AssertionQuestion(prog))
	if res.Verdict != Safe {
		t.Fatalf("verdict %v after node kill, want Safe (stop %v)", res.Verdict, res.StopReason)
	}
	if len(res.KilledNodes) != 1 || res.KilledNodes[0] != 2 {
		t.Fatalf("killed nodes = %v, want [2]", res.KilledNodes)
	}
	if res.StopReason != StopRootAnswered {
		t.Fatalf("stop reason %v, want root-answered", res.StopReason)
	}
	t.Logf("recovered: %d summaries re-gossiped, %d queries re-routed, %d deliveries dropped",
		res.RecoveredSummaries, res.ReroutedQueries, res.DroppedDeliveries)
}

// TestDistributedNodeFailureStop: when the failing node is the last one
// alive the run cannot proceed — it must stop with StopNodeFailure, not
// pretend to time out or deadlock. The one-node cluster has no peer and
// so no gossip state; it dies once before any summary exists and once,
// a round before the fault-free run ends, after its database holds some,
// which its failover walk must survive.
func TestDistributedNodeFailureStop(t *testing.T) {
	prog := parser.MustParse(relationalToySource())
	run := func(f *Faults) Result {
		return NewDistributed(prog, DistOptions{
			Punch:          maymust.New(),
			Nodes:          1,
			ThreadsPerNode: 1, // one thread: both runs take the same rounds
			MaxRounds:      4000,
			Faults:         f,
		}).Run(AssertionQuestion(prog))
	}
	free := run(nil)
	if free.Rounds < 3 {
		t.Fatalf("fault-free run took %d rounds; the late kill needs at least 3", free.Rounds)
	}
	for _, round := range []int{1, free.Rounds - 1} {
		res := run(&Faults{KillNode: 0, KillRound: round, Seed: 1})
		if res.StopReason != StopNodeFailure {
			t.Fatalf("kill at round %d: stop reason %v, want node-failure", round, res.StopReason)
		}
		if res.Verdict != Unknown {
			t.Fatalf("kill at round %d: verdict %v, want Unknown", round, res.Verdict)
		}
		if len(res.KilledNodes) != 1 {
			t.Fatalf("kill at round %d: killed nodes = %v", round, res.KilledNodes)
		}
		if round > 1 && res.PerNodeSummaries[0] == 0 {
			t.Fatalf("kill at round %d: the victim held no summaries, so the late kill tests nothing", round)
		}
	}
}
