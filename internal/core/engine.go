// Package core implements BOLT (Fig. 4 of the paper): the parallel
// top-down verification framework. The engine iterates a MAP stage — which
// applies the PUNCH parameter to Ready queries in parallel, bounded by the
// thread throttle — and a REDUCE stage — which reactivates Blocked parents
// of Done queries and garbage-collects Done subtrees — until the root
// verification question is answered by a summary in SUMDB.
//
// Besides real wall-clock execution with goroutines, the engine maintains
// a deterministic virtual clock: each PUNCH invocation reports its
// abstract cost, and a MAP stage advances virtual time by the makespan of
// its batch list-scheduled on the simulated cores. The virtual clock is what reproduces the paper's speedup
// tables independently of the host (the paper's machine has 8 cores, a
// test box may have 2); the goroutines exercise true concurrency, and
// the repository benchmark (bench/) measures their wall clock.
//
// REDUCE exists once, in reduce.go, under both schedulers. This file
// holds the option and result types and the one batch scheduler, the
// round loop: every live node selects a batch, all batches are stepped in
// parallel, every result is applied, the root checked, every Done result
// retired. The barrier engine runs it over one node; the cluster
// simulation (distributed.go) over many, adding routing, gossip and
// failover. The streaming pool (async.go) is the other scheduler.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
)

// Verdict is the outcome of a verification run.
type Verdict int

// Verdicts.
const (
	// Unknown: resource limits hit, or the analysis got stuck.
	Unknown Verdict = iota
	// Safe: a not-may summary answers the root question — the error
	// states are unreachable.
	Safe
	// ErrorReachable: a must summary answers the root question — some
	// execution reaches the error states.
	ErrorReachable
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "Program is Safe"
	case ErrorReachable:
		return "Error Reachable"
	case Unknown:
		return "Unknown (resources exhausted)"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Options configure an engine run.
type Options struct {
	// Punch is the intraprocedural analysis parameter (required).
	Punch punch.Punch
	// MaxThreads is the paper's artificial throttle: the bound on queries
	// processed per MAP stage and on concurrently running PUNCH instances.
	// 1 is the sequential baseline. Default 1.
	MaxThreads int
	// VirtualCores is the number of simulated processor cores for the
	// virtual clock: a MAP stage advances virtual time by the greedy
	// list-scheduling makespan of its batch on this many machines (the
	// paper's test machine has 8). 0 means as many cores as threads.
	VirtualCores int
	// MaxVirtualTicks bounds accumulated virtual time (0 = unbounded).
	// An incremental re-check that re-proves an edited procedure's
	// interface first budgets the re-proofs and the root question apart:
	// each gets this, RealTimeout and MaxIterations in full.
	MaxVirtualTicks int64
	// RealTimeout bounds wall-clock time (0 = unbounded).
	RealTimeout time.Duration
	// MaxIterations bounds MAP/REDUCE iterations (0 = 1 << 20).
	MaxIterations int
	// Store, when non-nil, is the persistent summary store the run
	// warm-starts from: its contents are loaded into SUMDB before the
	// first MAP stage, and every summary SUMDB holds at run end is
	// persisted back (deduplicated by canonical wire key). Summaries are
	// sound facts about the program, so a warm run's verdict matches the
	// cold run's — it just gets there with less work. Store failures land
	// in Result.StoreErr.
	Store store.Store
	// CheckContract validates the §3.2 PUNCH postcondition on every
	// invocation (used by the test suite).
	CheckContract bool
	// Async selects the streaming work-stealing engine (async.go): a
	// persistent pool of MaxThreads workers pulls Ready queries from
	// work-stealing deques and REDUCE happens incrementally per Done
	// result, so a finished query immediately wakes its Blocked parent
	// without waiting for the rest of a batch. Verdict semantics are
	// identical to the barrier engine; scheduling (and hence trace
	// shapes) is nondeterministic.
	Async bool
	// Tracer, when non-nil, receives the run's query-lifecycle event
	// stream (see internal/obs). A nil tracer costs one branch per
	// would-be event.
	Tracer obs.Tracer
	// Metrics, when non-nil, is the registry the run's counters and
	// histograms accumulate into; a snapshot lands in Result.Metrics.
	// A nil registry costs one branch per would-be update.
	Metrics *obs.Metrics
	// PprofLabels wraps every PUNCH invocation in runtime/pprof labels
	// (engine, proc, query-depth) for CPU-profile attribution.
	PprofLabels bool
	// Probe, when non-nil, receives a live-state snapshot function for
	// the run's duration: per-worker state, forest occupancy, coalescer
	// and SUMDB/solver gauges, sampled concurrently by the debug HTTP
	// endpoints and the stall watchdog. A nil probe costs one branch per
	// publish site.
	Probe *obs.Probe
	// CollectProvenance records each query's summary read/write sets and
	// the run's procedure dependency DAG into Result.Provenance (see
	// internal/prov), folded from the run's event stream. Off by
	// default. With a Store attached, the verdict's procedure dependency
	// graph is also persisted beside the summaries.
	CollectProvenance bool
	// Incremental turns the warm start into an incremental re-check:
	// before hydration the program is diffed against the store's
	// persisted manifest, the edit's invalidation cone is discarded from
	// the store, and — when the root lies outside the cone — the
	// persisted verdict is reused without running (StopVerdictReused).
	// Implies CollectProvenance (the run's dependency graph must be
	// persisted for the next re-check). No effect without a Store.
	Incremental bool
}

// IterSample is one MAP/REDUCE iteration's instrumentation record; the
// series reproduces Figs. 3 and 7.
type IterSample struct {
	Iter       int
	VTime      int64 // virtual clock before the stage
	StageCost  int64 // makespan charged by this stage
	Ready      int   // Ready queries before selection
	Processed  int   // queries handed to PUNCH this stage
	Live       int   // live queries after REDUCE
	DoneSoFar  int64 // cumulative Done queries
	NewQueries int   // children created this stage
}

// Result reports a verification run.
type Result struct {
	Verdict     Verdict
	RootOutcome query.Outcome
	// StopReason records why the run terminated (see Result.setStop).
	StopReason StopReason
	// Iterations counts the run's scheduling steps (rounds, or completion
	// events when streaming), re-proofs included; Trace numbers them alike.
	Iterations   int
	TotalQueries int64 // queries ever created
	PeakReady    int
	// PeakLive is the largest live-query count of one tree: on a cluster,
	// the largest of PerNodePeakLive.
	PeakLive     int
	VirtualTicks int64
	WallTime     time.Duration
	// Steals counts the queries a streaming worker stole from another
	// worker's deque (zero for the barrier engine).
	Steals int64
	// CoalesceHits counts spawned children answered by a live in-flight
	// twin instead of growing a duplicate subtree.
	CoalesceHits int64
	Trace        []IterSample
	SumDB        summary.Stats
	Solver       smt.Stats
	// The cluster's own counters (distributed.go), zero or nil on the
	// single-machine engines. Rounds equals Iterations. PerNodePeakLive
	// is each node's peak live-query count — the memory-sharding payoff
	// the paper's discussion predicts — and PerNodeSummaries its final
	// summary count. SyncExchanges counts gossip exchanges,
	// DroppedDeliveries the deliveries injected loss deferred (each is
	// retried at a later exchange). KilledNodes lists the nodes fault
	// injection removed, in order; ReroutedQueries counts the live
	// queries failover moved off them, RecoveredSummaries the summary
	// deliveries of its re-gossip.
	Rounds             int
	PerNodePeakLive    []int
	PerNodeSummaries   []int
	SyncExchanges      int
	DroppedDeliveries  int
	KilledNodes        []int
	ReroutedQueries    int
	RecoveredSummaries int
	// Metrics is the observability snapshot (nil unless Options.Metrics
	// was set): counters, punch histograms, per-worker accounting, and
	// the SUMDB and solver counters.
	Metrics *obs.Snapshot
	// Summaries is the final content of SUMDB.
	Summaries []summary.Summary
	// WarmSummaries is the number of summaries loaded from Options.Store
	// before the run (0 on a cold start); PersistedSummaries the number
	// of new summaries written back to it; StoreErr the first store
	// failure, if any (the run itself proceeds — a broken store degrades
	// to a cold run, never a wrong verdict).
	WarmSummaries      int
	PersistedSummaries int
	StoreErr           error
	// Provenance is the verdict's dependency record (nil unless
	// Options.CollectProvenance was set): the procedure cone, the
	// summaries read and written, and warm-vs-fresh attribution.
	Provenance *prov.Provenance
	// EditedProcs, InvalidatedSummaries and SurvivingSummaries report an
	// incremental re-check (Options.Incremental): the procedures whose
	// content changed since the store's manifest, the summaries the edit
	// cone discarded, and the summaries that survived invalidation.
	// ReusedVerdict marks a re-check answered entirely from the store —
	// the edit could not affect the root question, so the persisted
	// verdict was returned without running (StopVerdictReused).
	EditedProcs          []string
	InvalidatedSummaries int
	SurvivingSummaries   int
	ReusedVerdict        bool
	// PerNodeInvalidated routes InvalidatedSummaries to the cluster nodes
	// that owned them (nil on the single-machine engines).
	PerNodeInvalidated []int
	// Cutoff reports the re-check's attempt to stop the edit at the
	// edited procedure (nil unless something was edited and the edit
	// reaches the root). When it held, a reused verdict was reused after
	// the re-proofs, whose ticks VirtualTicks counts.
	Cutoff *Cutoff
}

// setStop records the termination reason exactly once: the first to
// fire wins.
func (r *Result) setStop(reason StopReason) {
	if r.StopReason == StopNone {
		r.StopReason = reason
	}
}

// Engine runs BOLT on one program.
type Engine struct {
	prog *cfg.Program
	opts Options
}

// New returns an engine; opts.Punch must be set.
func New(prog *cfg.Program, opts Options) *Engine {
	if opts.Punch == nil {
		panic("core: Options.Punch is required")
	}
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = 1
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 1 << 20
	}
	if opts.VirtualCores <= 0 || opts.VirtualCores > opts.MaxThreads {
		opts.VirtualCores = opts.MaxThreads
	}
	if opts.Incremental {
		// A re-check must persist its dependency graph for the next one.
		opts.CollectProvenance = true
	}
	return &Engine{prog: prog, opts: opts}
}

// Run answers the verification question q0 (Fig. 4) with no external
// cancellation; see RunContext.
func (e *Engine) Run(q0 summary.Question) Result {
	return e.RunContext(context.Background(), q0)
}

// RunContext answers the verification question q0 (Fig. 4). With
// Options.Async it schedules with the streaming work-stealing pool;
// otherwise it runs the paper's bulk-synchronous MAP/REDUCE loop, the
// cluster's round loop over one node. Cancelling ctx stops the run with
// StopReason StopCancelled; since PUNCH invocations are not preemptible,
// cancellation is observed at stage boundaries (one PUNCH slice is bounded
// by the step budget, so the latency is small).
func (e *Engine) RunContext(ctx context.Context, q0 summary.Question) Result {
	o := &e.opts
	engine, schedule := "barrier", func(ctx context.Context, r *reducer) {
		rounds{threads: o.MaxThreads, cores: o.VirtualCores, max: o.MaxIterations}.run(ctx, r, newNodes(1))
	}
	if o.Async {
		engine, schedule = "async", e.stream
	}
	r := newReducer(e.prog, *o, engine, 1, o.MaxThreads, nil)
	r.run(ctx, q0, schedule)
	return r.res
}

// rounds configures the batch scheduler for one run: per node, the MAP
// throttle and the simulated cores its batch is list-scheduled on; the
// round bound; and, for a cluster, the gossip period, the virtual cost of
// one exchange and the fault plan.
type rounds struct {
	threads, cores, max, syncEvery int
	syncCost                       int64
	faults                         *Faults
}

// run is the batch scheduler: Fig. 4's loop, in rounds over the nodes of
// a cluster — the barrier engine is a cluster of one node. Each round
// every live node selects up to threads Ready queries from its own tree,
// all batches are stepped in parallel, the clock advances by the largest
// per-node makespan, and the whole round is reduced at once (§3.3). Every
// syncEvery rounds the nodes gossip fresh summaries; a node without a
// peer never does.
func (c rounds) run(ctx context.Context, r *reducer, nodes []*distNode) {
	peers := len(nodes) > 1
	for _, n := range nodes {
		n.db, n.tree = r.dbs[n.id], r.forest[n.id]
		if peers {
			n.startGossip()
		}
	}
	var rng *rand.Rand
	drop := 0.0
	if c.faults != nil {
		rng, drop = rand.New(rand.NewSource(c.faults.Seed)), c.faults.GossipDrop
	}
	var batch []slot
	// Rounds are numbered over the whole run; the bound is the phase's.
	for round := r.res.Iterations; round < r.phase.steps+c.max; round++ {
		if stop := r.exhausted(ctx); stop != StopNone {
			r.res.setStop(stop)
			break
		}
		// Fault injection: the victim dies at the start of its round,
		// before MAP, so no in-flight work complicates recovery.
		if f := c.faults; f != nil && f.KillNode >= 0 && round == f.KillRound {
			failNode(r, nodes, f.KillNode)
			if owner(nodes, r.q0.Proc) < 0 {
				r.res.setStop(StopNodeFailure)
				break
			}
		}

		// Each live node selects one MAP batch from its own tree. Punch
		// spans open here and close once the clock has passed the stage,
		// so each (node, worker) track holds at most one open span.
		batch = batch[:0]
		ready := 0
		for _, n := range nodes {
			if n.dead {
				continue
			}
			sel := n.tree.InState(query.Ready)
			ready += len(sel)
			if len(sel) > c.threads {
				sel = sel[:c.threads]
			}
			for w, q := range sel {
				r.punchStart(n.id, w, q)
				batch = append(batch, slot{node: n.id, worker: w, q: q})
			}
		}
		vtime, created := r.vtime, r.created
		if len(batch) == 0 {
			// Every live query is Blocked. On one node no child can ever
			// answer (the query tree has no cycles): the analysis is stuck.
			// In a cluster answers may be stranded in remote shards: force
			// an exchange, exempt from injected loss (a reliable anti-entropy
			// repair: drops may delay the cluster but never wedge it). If
			// nothing flowed, the cluster is stuck too.
			if !peers {
				r.res.setStop(StopDeadlocked)
				break
			}
			moved := gossip(r, nodes, nil, 0, c.syncCost)
			r.sample(IterSample{Iter: round, VTime: vtime, Ready: ready}, created, 0)
			if moved == 0 {
				r.res.setStop(StopDeadlocked)
				break
			}
			continue
		}

		// MAP: every node's batch runs in parallel. The summary databases
		// are the only shared state (§3.3); the depth map is read-only
		// meanwhile.
		fanOut(len(batch), func(i int) {
			b := &batch[i]
			b.res, b.wall, b.log = r.step(ctx, b.node, b.q, r.depth[b.q.ID])
		})
		stage := r.advance(batch, c.cores)
		for i := range batch {
			b := &batch[i]
			r.punchEnd(b.node, b.worker, b.q, b.res.Cost, b.wall, b.log)
		}
		// REDUCE over the whole round: merging a result routes its children
		// to their owning node (a remote dispatch in a real deployment);
		// retiring a Done query wakes parents and waiters that may live on
		// another node.
		answered := r.reduceBatch(batch)

		// Gossip, subject to the injected loss plan.
		if peers && !answered && (round+1)%c.syncEvery == 0 {
			gossip(r, nodes, rng, drop, c.syncCost)
		}
		r.sample(IterSample{Iter: round, VTime: vtime, StageCost: stage, Ready: ready, Processed: len(batch)}, created, 0)
		if answered {
			r.res.setStop(StopRootAnswered)
			break
		}
	}
	// Falling out of the loop without a recorded reason means the round
	// budget ran dry.
	r.res.setStop(StopEventBudget)
}

// fanOut runs f(0) … f(n-1) concurrently and returns when all have
// finished. The last call runs on the calling goroutine: a one-query MAP
// stage — every stage of a sequential run — then costs no goroutine
// hand-off at all.
func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	if n > 0 {
		f(n - 1)
	}
	wg.Wait()
}

// makespan computes the greedy list-scheduling completion time of the
// given task costs on n identical machines (tasks assigned in order to
// the least-loaded machine): the streaming engine's event-driven clock
// (coreClock) fed the whole batch at once.
func makespan(costs []int64, n int) int64 {
	c := newCoreClock(min(n, len(costs)), 0)
	for _, cost := range costs {
		c.assign(cost)
	}
	return c.vtime
}

// siftDown restores the min-heap property of h after h[i] increased.
func siftDown(h []int64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
