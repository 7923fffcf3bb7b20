// Live engine introspection: the state a running engine publishes so a
// human (or the stall watchdog) can ask "what is the analysis doing
// right now?" without waiting for the run to end.
//
// The design splits responsibilities three ways:
//
//   - LiveState is the engine-side write surface: a fixed set of atomics
//     the engines update at their existing safe points (the streaming
//     engine under its scheduler mutex, the barrier and distributed
//     engines at stage/round boundaries). A nil *LiveState is fully
//     disabled — every method is nil-receiver safe and costs one branch,
//     preserving the package's zero-cost-when-disabled contract.
//
//   - StateSnapshot is the read surface: a plain JSON-serializable
//     struct assembled on demand from the atomics plus whatever
//     concurrent-safe stats providers the engine captured (SUMDB shard
//     stats, solver counters).
//
//   - Probe is the stable handle between them: callers keep one Probe
//     across runs, engines Attach a snapshot function at run start and
//     Detach (freezing a final snapshot) at run end.
package obs

import (
	"sync/atomic"
	"time"
)

// RunPhase describes what a Probe's engine is doing.
type RunPhase int32

// Run phases, in lifecycle order.
const (
	// RunIdle: no run has been attached yet.
	RunIdle RunPhase = iota
	// RunActive: a run is attached and in flight.
	RunActive
	// RunFinished: at least one run completed and none is in flight.
	RunFinished
)

func (p RunPhase) String() string {
	switch p {
	case RunIdle:
		return "idle"
	case RunActive:
		return "running"
	case RunFinished:
		return "finished"
	}
	return "unknown"
}

// WorkerPhase is one worker's instantaneous scheduling state.
type WorkerPhase int32

// Worker phases.
const (
	// WorkerIdle: between PUNCH invocations.
	WorkerIdle WorkerPhase = iota
	// WorkerRunning: inside a PUNCH invocation.
	WorkerRunning
	// WorkerStealing: scanning other workers' deques for work.
	WorkerStealing
	// WorkerParked: found no runnable work and parked.
	WorkerParked
)

func (p WorkerPhase) String() string {
	switch p {
	case WorkerIdle:
		return "idle"
	case WorkerRunning:
		return "running"
	case WorkerStealing:
		return "stealing"
	case WorkerParked:
		return "parked"
	}
	return "unknown"
}

// workerLive is one worker's live cell. proc holds the procedure name of
// the current (or last) PUNCH as an atomic.Value of string.
type workerLive struct {
	phase   atomic.Int32
	query   atomic.Int64
	punches atomic.Int64
	proc    atomic.Value
}

// nodeLive is one distributed-simulation node's live cell.
type nodeLive struct {
	dead      atomic.Bool
	live      atomic.Int64
	ready     atomic.Int64
	blocked   atomic.Int64
	summaries atomic.Int64
	backlog   atomic.Int64
	busyTicks atomic.Int64
}

// LiveState is the write surface the engines publish live run state
// through. All methods are nil-receiver safe and lock-free.
type LiveState struct {
	engine         string
	epoch          time.Time
	workersPerNode int

	vtime      atomic.Int64
	iterations atomic.Int64

	live     atomic.Int64
	ready    atomic.Int64
	blocked  atomic.Int64
	running  atomic.Int64
	spawned  atomic.Int64
	done     atomic.Int64
	maxDepth atomic.Int64

	inflightKeys atomic.Int64
	waiterEdges  atomic.Int64
	coalesced    atomic.Int64

	workers []workerLive
	nodes   []nodeLive
}

// NewLiveState returns the live cell set for a run: engine is the
// engine name ("barrier", "async", "dist"), workers the worker-slot
// count, nodes the cluster size (0 for the single-machine engines), and
// epoch the run's wall-clock start.
func NewLiveState(engine string, workers, nodes int, epoch time.Time) *LiveState {
	if workers < 0 {
		workers = 0
	}
	ls := &LiveState{
		engine:  engine,
		epoch:   epoch,
		workers: make([]workerLive, workers),
	}
	if nodes > 0 {
		ls.nodes = make([]nodeLive, nodes)
		ls.workersPerNode = workers / nodes
	}
	return ls
}

// Tick publishes the virtual clock and the iteration/event/round count.
func (ls *LiveState) Tick(vtime, iterations int64) {
	if ls == nil {
		return
	}
	ls.vtime.Store(vtime)
	ls.iterations.Store(iterations)
}

// SetForest publishes the query-forest occupancy gauges. Negative
// values (possible when a caller derives blocked = live - ready -
// running from slightly skewed reads) are clamped to zero.
func (ls *LiveState) SetForest(live, ready, blocked, running int64) {
	if ls == nil {
		return
	}
	ls.live.Store(clampNonNeg(live))
	ls.ready.Store(clampNonNeg(ready))
	ls.blocked.Store(clampNonNeg(blocked))
	ls.running.Store(clampNonNeg(running))
}

// SetProgress publishes the monotone progress counters: queries ever
// spawned and queries answered.
func (ls *LiveState) SetProgress(spawned, done int64) {
	if ls == nil {
		return
	}
	ls.spawned.Store(spawned)
	ls.done.Store(done)
}

// ObserveDepth folds one query's tree depth into the max-depth gauge.
func (ls *LiveState) ObserveDepth(d int) {
	if ls == nil {
		return
	}
	v := int64(d)
	for {
		old := ls.maxDepth.Load()
		if v <= old || ls.maxDepth.CompareAndSwap(old, v) {
			return
		}
	}
}

// SetCoalescer publishes the in-flight index size, the registered
// waiter-edge count, and the cumulative coalesce hits.
func (ls *LiveState) SetCoalescer(inflightKeys, waiterEdges, hits int64) {
	if ls == nil {
		return
	}
	ls.inflightKeys.Store(inflightKeys)
	ls.waiterEdges.Store(waiterEdges)
	ls.coalesced.Store(hits)
}

func (ls *LiveState) worker(w int) *workerLive {
	if ls == nil || w < 0 || w >= len(ls.workers) {
		return nil
	}
	return &ls.workers[w]
}

// WorkerRunning marks worker w inside a PUNCH invocation on the given
// procedure and query.
func (ls *LiveState) WorkerRunning(w int, proc string, query int64) {
	c := ls.worker(w)
	if c == nil {
		return
	}
	c.proc.Store(proc)
	c.query.Store(query)
	c.phase.Store(int32(WorkerRunning))
}

// WorkerFinished marks worker w done with its PUNCH invocation: the
// punch counter advances and the phase returns to idle. The proc/query
// cells keep their last value so a snapshot still says what the worker
// worked on most recently.
func (ls *LiveState) WorkerFinished(w int) {
	c := ls.worker(w)
	if c == nil {
		return
	}
	c.punches.Add(1)
	c.phase.Store(int32(WorkerIdle))
}

// WorkerStealing marks worker w scanning for work to steal.
func (ls *LiveState) WorkerStealing(w int) {
	if c := ls.worker(w); c != nil {
		c.phase.Store(int32(WorkerStealing))
	}
}

// WorkerParked marks worker w parked with no runnable work.
func (ls *LiveState) WorkerParked(w int) {
	if c := ls.worker(w); c != nil {
		c.phase.Store(int32(WorkerParked))
	}
}

func (ls *LiveState) node(n int) *nodeLive {
	if ls == nil || n < 0 || n >= len(ls.nodes) {
		return nil
	}
	return &ls.nodes[n]
}

// NodeSet publishes one node's occupancy gauges (distributed engine,
// round boundaries).
func (ls *LiveState) NodeSet(n int, live, ready, blocked, summaries int64) {
	c := ls.node(n)
	if c == nil {
		return
	}
	c.live.Store(clampNonNeg(live))
	c.ready.Store(clampNonNeg(ready))
	c.blocked.Store(clampNonNeg(blocked))
	c.summaries.Store(summaries)
}

// NodeAddBusy charges cost virtual ticks of MAP work to node n's busy
// ledger (the per-node skew input).
func (ls *LiveState) NodeAddBusy(n int, cost int64) {
	if c := ls.node(n); c != nil {
		c.busyTicks.Add(cost)
	}
}

// NodeSetBacklog publishes node n's gossip backlog: summary deliveries
// deferred (by injected loss) at the most recent exchange.
func (ls *LiveState) NodeSetBacklog(n int, backlog int64) {
	if c := ls.node(n); c != nil {
		c.backlog.Store(backlog)
	}
}

// NodeDead marks node n killed by fault injection.
func (ls *LiveState) NodeDead(n int) {
	if c := ls.node(n); c != nil {
		c.dead.Store(true)
	}
}

func clampNonNeg(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// ForestState is the query-forest occupancy part of a snapshot.
type ForestState struct {
	// Live is the number of queries currently in the forest; Ready,
	// Blocked and Running split them by scheduling state.
	Live    int64 `json:"live"`
	Ready   int64 `json:"ready"`
	Blocked int64 `json:"blocked"`
	Running int64 `json:"running"`
	// Spawned and Done are the monotone progress counters; MaxDepth the
	// deepest tree depth observed so far.
	Spawned  int64 `json:"spawned"`
	Done     int64 `json:"done"`
	MaxDepth int64 `json:"max_depth"`
}

// CoalescerState is the in-flight coalescer part of a snapshot.
type CoalescerState struct {
	// InflightKeys is the size of the canonical-question index;
	// WaiterEdges the number of coalesced waiter registrations currently
	// live; Hits the cumulative coalesce count.
	InflightKeys int64 `json:"inflight_keys"`
	WaiterEdges  int64 `json:"waiter_edges"`
	Hits         int64 `json:"hits"`
}

// WorkerState is one worker's instantaneous state in a snapshot.
type WorkerState struct {
	Worker int `json:"worker"`
	// Node is the owning node in the distributed simulation (0 for the
	// single-machine engines).
	Node  int    `json:"node"`
	Phase string `json:"phase"`
	// Proc and Query identify the current (phase "running") or most
	// recent PUNCH invocation; Punches counts completed invocations.
	Proc    string `json:"proc,omitempty"`
	Query   int64  `json:"query"`
	Punches int64  `json:"punches"`
}

// NodeState is one distributed-simulation node's state in a snapshot.
type NodeState struct {
	Node    int   `json:"node"`
	Dead    bool  `json:"dead,omitempty"`
	Live    int64 `json:"live"`
	Ready   int64 `json:"ready"`
	Blocked int64 `json:"blocked"`
	// Summaries is the node's summary-database size; GossipBacklog the
	// deliveries deferred at the latest gossip exchange; BusyTicks the
	// node's cumulative MAP makespan.
	Summaries     int64 `json:"summaries"`
	GossipBacklog int64 `json:"gossip_backlog"`
	BusyTicks     int64 `json:"busy_ticks"`
}

// SumDBState is the summary database's live view: totals plus the
// per-shard occupancy the striping exists for. In the distributed
// engine the view aggregates every node's database, so Summaries counts
// gossip replicas too.
type SumDBState struct {
	Summaries int64        `json:"summaries"`
	YesHits   int64        `json:"yes_hits"`
	NoHits    int64        `json:"no_hits"`
	Misses    int64        `json:"misses"`
	MemoHits  int64        `json:"memo_hits"`
	Shards    []ShardState `json:"shards,omitempty"`
}

// ShardState is one SUMDB lock stripe's live occupancy and traffic.
type ShardState struct {
	Shard     int   `json:"shard"`
	Procs     int   `json:"procs"`
	Summaries int   `json:"summaries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
}

// SolverState is the solver's mid-run accounting: entailment-cache and
// DPLL counters sampled from the live atomics.
type SolverState struct {
	SatCalls          int64 `json:"sat_calls"`
	TheoryChecks      int64 `json:"theory_checks"`
	DPLLConflicts     int64 `json:"dpll_conflicts"`
	LearnedClauses    int64 `json:"learned_clauses"`
	Propagations      int64 `json:"propagations"`
	EntailCacheHits   int64 `json:"entail_cache_hits"`
	EntailCacheMisses int64 `json:"entail_cache_misses"`
	EntailSynHits     int64 `json:"entail_syn_hits"`
	HashConsHits      int64 `json:"hashcons_hits"`
	// Memos is the fill of each of the solver's bounded memos. None of
	// them evicts: one with TurnedAway > 0 is full and has been computing
	// the results it could not keep again.
	Memos []MemoState `json:"memos,omitempty"`
}

// MemoState is the fill of one solver memo.
type MemoState struct {
	Name       string `json:"name"`
	Entries    int64  `json:"entries"`
	Capacity   int64  `json:"capacity"`
	TurnedAway int64  `json:"turned_away"`
}

// StateSnapshot is one moment of a run, assembled for JSON. Gauges are
// read individually from atomics, so a snapshot is racy-but-monotone
// rather than a consistent cut — see DESIGN.md's snapshot-consistency
// notes for which fields are exact.
type StateSnapshot struct {
	Engine string `json:"engine,omitempty"`
	// Phase is the probe's run phase ("idle", "running", "finished");
	// Runs counts completed runs on the same probe.
	Phase string `json:"phase"`
	Runs  int64  `json:"runs,omitempty"`
	// ElapsedNs is wall-clock time since the run started.
	ElapsedNs  int64          `json:"elapsed_ns,omitempty"`
	VTime      int64          `json:"vtime"`
	Iterations int64          `json:"iterations"`
	Forest     ForestState    `json:"forest"`
	Coalescer  CoalescerState `json:"coalescer"`
	Workers    []WorkerState  `json:"workers,omitempty"`
	// Nodes and NodeSkew (max/avg busy ticks over live nodes) are
	// populated by the distributed engine only.
	Nodes    []NodeState  `json:"nodes,omitempty"`
	NodeSkew float64      `json:"node_skew,omitempty"`
	SumDB    *SumDBState  `json:"sumdb,omitempty"`
	Solver   *SolverState `json:"solver,omitempty"`
}

// TotalPunches sums the per-worker punch counters — one of the progress
// signals the watchdog watches.
func (s *StateSnapshot) TotalPunches() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, w := range s.Workers {
		n += w.Punches
	}
	return n
}

// Snapshot assembles the atomics into a StateSnapshot (nil on a nil
// receiver). Engine-specific extras (SumDB, Solver) are layered on by
// the snapshot function the engine registers with Probe.Attach.
func (ls *LiveState) Snapshot() *StateSnapshot {
	if ls == nil {
		return nil
	}
	s := &StateSnapshot{
		Engine:     ls.engine,
		ElapsedNs:  int64(time.Since(ls.epoch)),
		VTime:      ls.vtime.Load(),
		Iterations: ls.iterations.Load(),
		Forest: ForestState{
			Live:     ls.live.Load(),
			Ready:    ls.ready.Load(),
			Blocked:  ls.blocked.Load(),
			Running:  ls.running.Load(),
			Spawned:  ls.spawned.Load(),
			Done:     ls.done.Load(),
			MaxDepth: ls.maxDepth.Load(),
		},
		Coalescer: CoalescerState{
			InflightKeys: ls.inflightKeys.Load(),
			WaiterEdges:  ls.waiterEdges.Load(),
			Hits:         ls.coalesced.Load(),
		},
	}
	s.Workers = make([]WorkerState, len(ls.workers))
	for i := range ls.workers {
		c := &ls.workers[i]
		w := WorkerState{
			Worker:  i,
			Phase:   WorkerPhase(c.phase.Load()).String(),
			Query:   c.query.Load(),
			Punches: c.punches.Load(),
		}
		if p, ok := c.proc.Load().(string); ok {
			w.Proc = p
		}
		if ls.workersPerNode > 0 {
			w.Node = i / ls.workersPerNode
		}
		s.Workers[i] = w
	}
	if len(ls.nodes) > 0 {
		s.Nodes = make([]NodeState, len(ls.nodes))
		var busySum, busyMax int64
		liveNodes := 0
		for i := range ls.nodes {
			c := &ls.nodes[i]
			n := NodeState{
				Node:          i,
				Dead:          c.dead.Load(),
				Live:          c.live.Load(),
				Ready:         c.ready.Load(),
				Blocked:       c.blocked.Load(),
				Summaries:     c.summaries.Load(),
				GossipBacklog: c.backlog.Load(),
				BusyTicks:     c.busyTicks.Load(),
			}
			s.Nodes[i] = n
			if !n.Dead {
				liveNodes++
				busySum += n.BusyTicks
				if n.BusyTicks > busyMax {
					busyMax = n.BusyTicks
				}
			}
		}
		if liveNodes > 0 && busySum > 0 {
			s.NodeSkew = float64(busyMax) / (float64(busySum) / float64(liveNodes))
		}
	}
	return s
}

// Probe is the stable live-introspection handle: callers (the HTTP
// debug server, the watchdog, bolt.Inspector) keep one Probe for the
// life of the process while engines attach and detach per run. All
// methods are nil-receiver safe and safe for concurrent use.
type Probe struct {
	fn   atomic.Pointer[func() *StateSnapshot]
	last atomic.Pointer[StateSnapshot]
	runs atomic.Int64
}

// Attach registers the snapshot function of a starting run. The
// function must be safe to call from any goroutine at any time until
// well after Detach (late readers may still hold it briefly).
func (p *Probe) Attach(fn func() *StateSnapshot) {
	if p == nil || fn == nil {
		return
	}
	p.fn.Store(&fn)
}

// Detach ends the attached run: one final snapshot is frozen (served to
// later State calls with phase "finished") and the run counter
// advances. Engines call it when the run has fully stopped.
func (p *Probe) Detach() {
	if p == nil {
		return
	}
	fnp := p.fn.Swap(nil)
	if fnp == nil {
		return
	}
	if s := (*fnp)(); s != nil {
		s.Phase = RunFinished.String()
		p.last.Store(s)
	}
	p.runs.Add(1)
}

// State samples the probe: a fresh snapshot of the attached run, the
// frozen final snapshot of the last completed run, or nil when nothing
// ever ran.
func (p *Probe) State() *StateSnapshot {
	if p == nil {
		return nil
	}
	if fnp := p.fn.Load(); fnp != nil {
		if s := (*fnp)(); s != nil {
			s.Phase = RunActive.String()
			s.Runs = p.runs.Load()
			return s
		}
	}
	if last := p.last.Load(); last != nil {
		s := *last
		s.Runs = p.runs.Load()
		return &s
	}
	return nil
}

// Phase reports the probe's run phase without building a snapshot.
func (p *Probe) Phase() RunPhase {
	if p == nil {
		return RunIdle
	}
	if p.fn.Load() != nil {
		return RunActive
	}
	if p.runs.Load() > 0 {
		return RunFinished
	}
	return RunIdle
}

// Runs returns how many runs have completed on this probe.
func (p *Probe) Runs() int64 {
	if p == nil {
		return 0
	}
	return p.runs.Load()
}
