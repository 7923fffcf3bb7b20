// Distributed BOLT (§7 "Future Work"): the paper observes that BOLT's
// MapReduce architecture permits a distributed implementation, and that
// the limiting factor for scaling is memory, not time — each PUNCH run
// only needs the procedure under analysis, so the query tree and summary
// database can be sharded across machines.
//
// This file implements that design as a deterministic simulation: a
// cluster of nodes, each with its own worker pool and its own summary
// database shard. Queries are routed to nodes by their procedure (so a
// procedure's summaries are owned by one node), and nodes gossip freshly
// added summaries with a configurable synchronization period, modelling
// network staleness. Virtual time advances by the per-round maximum over
// node-local makespans plus the sync latency. The simulation preserves
// BOLT's verdict semantics while exposing the quantities of interest for
// a distributed deployment: per-node live-query and summary-count peaks
// (the memory story) and the wall-clock effect of sync latency.
//
// The simulation also executes an injected fault plan (DistOptions.Faults)
// — the straggler/partial-failure concerns a real deployment would face:
// a node can be killed at the start of a chosen round, and gossip
// deliveries can be dropped (deferred) with seeded randomness. Failover
// re-routes the dead node's live queries to the surviving owners and
// re-gossips its summaries (modelling a replicated summary log), so
// verdicts are preserved under faults; the confluence tests assert this.
//
// REDUCE is reduce.go's, run once over the forest of all nodes' trees
// (this is a one-process simulation, and the coalescer's cycle check
// walks the whole forest anyway), and the scheduler is the round loop in
// engine.go — the barrier engine is the same loop over one node: step
// every node's batch in parallel, apply every result, check the root,
// retire every Done result. What this file adds is what a cluster adds
// once a node has a peer: procedure routing, gossip, and failover.
package core

import (
	"context"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cfg"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/summary"
)

// DistOptions configure a simulated cluster run.
type DistOptions struct {
	// Punch is the intraprocedural analysis (required).
	Punch punch.Punch
	// Nodes is the cluster size. Default 2.
	Nodes int
	// ThreadsPerNode is each node's MAP-stage throttle. Default 4.
	ThreadsPerNode int
	// SyncEvery is how many rounds pass between summary gossip exchanges
	// (1 = every round). Larger values model higher network latency /
	// batching. Default 1.
	SyncEvery int
	// SyncCost is the virtual-time cost charged per gossip exchange.
	SyncCost int64
	// MaxRounds bounds the simulation. Default 1 << 18. Like
	// RealTimeout, it bounds an incremental re-check's re-proofs and its
	// root question each in full (Options.MaxVirtualTicks).
	MaxRounds int
	// RealTimeout bounds wall-clock time (0 = none).
	RealTimeout time.Duration
	// Faults is the injected fault plan (nil = fault-free run).
	Faults *Faults
	// Store, when non-nil, warm-starts the cluster: each stored summary
	// is loaded into its owning node's database before round 0 (gossip
	// spreads it from there), and the union of all node databases is
	// persisted back at run end. See Options.Store.
	Store store.Store
	// Tracer receives the run's query-lifecycle event stream (nil = off).
	Tracer obs.Tracer
	// Metrics is the registry the run updates (nil = off).
	Metrics *obs.Metrics
	// CollectProvenance records the verdict's summary read/write sets
	// and procedure dependency graph into Result.Provenance; see
	// Options.CollectProvenance. Procedure routing does not affect the
	// recorded dependency graph, so the cone matches the shared-memory
	// engines'.
	CollectProvenance bool
	// Incremental turns the warm start into an incremental re-check; see
	// Options.Incremental. Invalidation is routed to owning nodes:
	// Result.PerNodeInvalidated reports how many summaries each node
	// lost. Implies CollectProvenance.
	Incremental bool
	// PprofLabels wraps each PUNCH invocation in runtime/pprof labels.
	PprofLabels bool
	// Probe, when non-nil, receives a live-state snapshot function for
	// the run's duration (per-node occupancy, skew and gossip backlog on
	// top of the shared worker/forest gauges); see Options.Probe.
	Probe *obs.Probe
}

// distNode is one simulated machine — the barrier engine's only node, or
// one of a cluster's: its tree and summary database are the run's
// forest[id] and dbs[id].
type distNode struct {
	id    int
	db    *summary.DB
	tree  *query.Tree
	known map[gossipKey]bool // summaries already received via gossip (nil without a peer)
	// sent is, per procedure, how many of its leading summaries in db
	// every live peer has in known: gossip walks each procedure from
	// there (nil without a peer).
	sent map[string]int
	// procs is db's procedure list in sorted order, the order gossip
	// walks; it holds the first merged names of db.Procs, the rest are
	// merged in at the next exchange (sortedProcs), through fresh.
	procs, fresh []string
	merged       int
	dead         bool // killed by fault injection
}

// distCheckContract makes every cluster run validate the PUNCH contract
// and the reducer's invariants (Options.CheckContract). DistOptions has
// no such field; only this package's tests set it.
var distCheckContract bool

// DistEngine runs BOLT sharded across simulated nodes.
type DistEngine struct {
	prog *cfg.Program
	opts DistOptions
}

// NewDistributed returns a distributed engine.
func NewDistributed(prog *cfg.Program, opts DistOptions) *DistEngine {
	if opts.Punch == nil {
		panic("core: DistOptions.Punch is required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.ThreadsPerNode <= 0 {
		opts.ThreadsPerNode = 4
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1 << 18
	}
	if opts.Incremental {
		// A re-check must persist its dependency graph for the next one.
		opts.CollectProvenance = true
	}
	return &DistEngine{prog: prog, opts: opts}
}

// newNodes returns n live nodes; the round loop binds their trees and
// databases once the run has built them.
func newNodes(n int) []*distNode {
	nodes := make([]*distNode, n)
	for i := range nodes {
		nodes[i] = &distNode{id: i}
	}
	return nodes
}

// startGossip readies n for a run's exchanges: it knows what its
// database holds and has sent nothing. A warm-started summary is thus
// known at its owner, so the first exchange spreads it cluster-wide
// without re-delivering it there.
func (n *distNode) startGossip() {
	n.known, n.sent = map[gossipKey]bool{}, map[string]int{}
	n.procs, n.merged = n.procs[:0], 0
	for _, proc := range n.db.Procs() {
		for _, s := range n.db.ForProc(proc) {
			n.known[summaryKey(s)] = true
		}
	}
}

// sortedProcs returns n's procedures in sorted order, after merging in
// place those that arrived since the last call: the new names are sorted
// on their own and merged from the back, so a call with nothing new costs
// nothing and the list grows by amortised appends.
func (n *distNode) sortedProcs() []string {
	all := n.db.Procs()
	if len(all) == n.merged {
		return n.procs
	}
	n.fresh = append(n.fresh[:0], all[n.merged:]...)
	n.merged = len(all)
	slices.Sort(n.fresh)
	i, j := len(n.procs)-1, len(n.fresh)-1
	n.procs = append(n.procs, n.fresh...)
	for k := len(n.procs) - 1; j >= 0; k-- {
		if i >= 0 && n.procs[i] > n.fresh[j] {
			n.procs[k] = n.procs[i]
			i--
		} else {
			n.procs[k] = n.fresh[j]
			j--
		}
	}
	return n.procs
}

// nodeOf routes a procedure to its home among n nodes. The modulo is
// taken in uint32 space: int(h.Sum32()) is negative for hashes above
// MaxInt32 on 32-bit platforms, and a signed modulo would then yield a
// negative index.
func nodeOf(proc string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(proc))
	return int(h.Sum32() % uint32(n))
}

// owner resolves proc's serving node: its hash home when alive, else the
// next live node in ring order (failover re-routing). Returns -1 when
// every node is dead.
func owner(nodes []*distNode, proc string) int {
	home := nodeOf(proc, len(nodes))
	for off := 0; off < len(nodes); off++ {
		if n := nodes[(home+off)%len(nodes)]; !n.dead {
			return n.id
		}
	}
	return -1
}

// router is the reducer's home function over nodes: nil for one node,
// which owns every procedure, so that nothing is hashed.
func router(nodes []*distNode) func(string) int {
	if len(nodes) == 1 {
		return nil
	}
	return func(proc string) int { return owner(nodes, proc) }
}

// Run answers q0 on the simulated cluster with no external cancellation;
// see RunContext.
func (e *DistEngine) Run(q0 summary.Question) Result {
	return e.RunContext(context.Background(), q0)
}

// RunContext answers q0 on the simulated cluster. Cancelling ctx stops
// the run at the next round boundary with StopReason StopCancelled. A
// one-node cluster neither routes nor gossips: its run is the barrier
// engine's. The result is the engines' Result with the cluster's own
// counters filled in.
func (e *DistEngine) RunContext(ctx context.Context, q0 summary.Question) Result {
	o := &e.opts
	nodes := newNodes(o.Nodes)
	r := newReducer(e.prog, Options{
		Punch:             o.Punch,
		Store:             o.Store,
		RealTimeout:       o.RealTimeout,
		CheckContract:     distCheckContract,
		Tracer:            o.Tracer,
		Metrics:           o.Metrics,
		PprofLabels:       o.PprofLabels,
		Probe:             o.Probe,
		CollectProvenance: o.CollectProvenance,
		Incremental:       o.Incremental,
	}, "dist", o.Nodes, o.ThreadsPerNode, router(nodes))
	r.run(ctx, q0, func(ctx context.Context, r *reducer) {
		rounds{threads: o.ThreadsPerNode, cores: o.ThreadsPerNode, max: o.MaxRounds,
			syncEvery: o.SyncEvery, syncCost: o.SyncCost, faults: o.Faults}.run(ctx, r, nodes)
	})
	res := r.res
	res.Rounds = res.Iterations
	res.PerNodePeakLive, res.PerNodeInvalidated = r.peak, r.invalidatedAt
	res.PerNodeSummaries = make([]int, len(r.forest))
	for i, db := range r.dbs {
		res.PerNodeSummaries[i] = db.Count()
	}
	return res
}

// aggregateStats sums the per-node summary-database traffic into one
// Stats view. Over a single database it is that database's own snapshot.
func aggregateStats(dbs []*summary.DB) summary.Stats {
	var agg summary.Stats
	for _, db := range dbs {
		st := db.StatsSnapshot()
		agg.Added += st.Added
		agg.YesHits += st.YesHits
		agg.NoHits += st.NoHits
		agg.Misses += st.Misses
		agg.DupesSkip += st.DupesSkip
		agg.MemoHits += st.MemoHits
	}
	return agg
}

// wakeBlocked moves every Blocked query on a live node back to Ready so
// its next PUNCH slice re-examines the (just updated) local database.
func wakeBlocked(r *reducer, nodes []*distNode) {
	for _, n := range nodes {
		if n.dead {
			continue
		}
		for _, q := range n.tree.InState(query.Blocked) {
			n.tree.SetState(q.ID, query.Ready)
			r.note(obs.EvWake, n.id, 0, q, 0)
		}
	}
}

// failNode executes the kill clause of the fault plan: victim's summaries
// are re-gossiped to the survivors (modelling a replicated summary log —
// this recovery path is a spread without loss, unlike periodic gossip;
// the victim's cursors hold for the survivors, its peers), and its live
// queries are re-routed to their new owners, with Blocked survivors woken
// so they re-examine the recovered databases. No-op when the victim is
// out of range or already dead.
func failNode(r *reducer, nodes []*distNode, victim int) {
	if victim < 0 || victim >= len(nodes) || nodes[victim].dead {
		return
	}
	res := &r.res
	dead := nodes[victim]
	dead.dead = true
	res.KilledNodes = append(res.KilledNodes, victim)
	if r.in.tr != nil {
		r.in.emit(obs.Event{Type: obs.EvNodeKill, Node: victim, VTime: r.vtime})
	}

	res.RecoveredSummaries += spread(r, nodes, dead, nil, 0)
	for _, q := range dead.tree.All() {
		at := owner(nodes, q.Q.Proc)
		if at < 0 {
			return // cluster is gone; the caller stops with StopNodeFailure
		}
		dst := nodes[at]
		dead.tree.MoveTo(dst.tree, q.ID)
		if q.State == query.Blocked {
			// The answer it waited for may have died with this node's
			// in-flight state; re-examining the DB is always sound.
			dst.tree.SetState(q.ID, query.Ready)
		}
		res.ReroutedQueries++
	}
	// Recovery deliveries are wake events like any other gossip: survivors
	// blocked on the victim's summaries must re-examine their databases.
	if res.RecoveredSummaries > 0 {
		wakeBlocked(r, nodes)
	}
}

// gossipKey identifies a summary within a run: its kind, its procedure
// and the interned ids of Pre and Post.
type gossipKey struct {
	kind      summary.Kind
	proc      string
	pre, post logic.ID
}

func summaryKey(s summary.Summary) gossipKey {
	return gossipKey{s.Kind, s.Proc, logic.KeyID(s.Pre), logic.KeyID(s.Post)}
}

// gossip is one exchange, charged cost virtual ticks: every live node in
// turn sends each live peer the summaries that peer has not received
// (full exchange), and gossip returns how many deliveries occurred. The
// simulation keys on summary structure to avoid rebroadcast, and a
// sender starts each procedure at its cursor (distNode.sent), past the
// summaries every live peer already has, so an exchange costs what is new
// in it, not what was gossiped before (spread). Each
// delivery is dropped with probability drop, drawn from rng; a dropped
// delivery stays unacknowledged and is retried at the next exchange
// (drop-as-delay). Each receiver's deferred-delivery count for this
// exchange is published as its live gossip backlog. A summary arrival is
// a wake event: queries that blocked before the delivery must re-examine
// their databases, or the all-blocked check would declare a
// fully-replicated-but-sleeping cluster dead.
func gossip(r *reducer, nodes []*distNode, rng *rand.Rand, drop float64, cost int64) int {
	res := &r.res
	res.SyncExchanges++
	r.vtime += cost
	r.in.m.Inc(obs.GossipRounds)
	for i := range r.nodes {
		r.nodes[i].GossipBacklog = 0
	}
	moved := 0
	for _, from := range nodes {
		if !from.dead {
			moved += spread(r, nodes, from, rng, drop)
		}
	}
	if moved > 0 {
		wakeBlocked(r, nodes)
	}
	return moved
}

// spread sends from's summaries, procedure by procedure in sorted order
// and each procedure's in insertion order, to every live peer whose known
// set lacks them, and returns how many deliveries it made; a delivery is
// dropped as gossip describes. It starts each procedure at from.sent and
// moves the cursor past every leading summary each live peer now knows.
// Skipping that prefix changes nothing: known sets only grow, a
// database's summaries are append-only within a run, and nodes only die.
// A node without a peer (from.sent nil: a one-node cluster dying) has no
// one to send to.
func spread(r *reducer, nodes []*distNode, from *distNode, rng *rand.Rand, drop float64) int {
	if from.sent == nil {
		return 0
	}
	moved := 0
	for _, proc := range from.sortedProcs() {
		sums, at := from.db.ForProc(proc), from.sent[proc]
		sent := at
		for i := at; i < len(sums); i++ {
			s := sums[i]
			key := summaryKey(s)
			everyone := true
			for _, to := range nodes {
				if to.dead || to == from || to.known[key] {
					continue
				}
				if drop > 0 && rng.Float64() < drop {
					r.res.DroppedDeliveries++
					if r.nodes != nil {
						r.nodes[to.id].GossipBacklog++
					}
					everyone = false
					continue
				}
				to.known[key] = true
				to.db.Add(s)
				moved++
				r.in.deliver(from.id, to.id, s, r.vtime)
			}
			if everyone && sent == i {
				sent++
			}
		}
		if sent > at {
			from.sent[proc] = sent
		}
	}
	return moved
}
