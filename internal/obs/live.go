// Live engine introspection: the state a running engine exposes so a
// human (or the stall watchdog) can ask "what is the analysis doing
// right now?" without waiting for the run to end.
//
// The design splits responsibilities three ways:
//
//   - LiveState is the engine-side surface: a Tracer folding the event
//     stream into per-worker cells, plus the Gauges value the engines
//     publish whole at their existing safe points (the streaming engine
//     under its scheduler mutex, the barrier and distributed engines at
//     stage/round boundaries).
//
//   - StateSnapshot is the read surface: a plain JSON-serializable
//     struct assembled on demand from the folds and the last published
//     gauges plus whatever concurrent-safe stats providers the engine
//     captured (SUMDB traffic counters, solver counters).
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

// Gauges is the part of a live snapshot that is not an event: the
// clock, forest and coalescer occupancy, the progress counters and the
// per-node gauges. The engine hands it over whole at its safe points
// (Publish), so the fields of one Gauges are one consistent cut.
// Forest.MaxDepth and NodeState.Dead are folds over the event stream
// and are ignored here.
type Gauges struct {
	VTime, Iterations int64
	Forest            ForestState
	Coalescer         CoalescerState
	// Nodes is indexed by node (distributed engine only).
	Nodes []NodeState
}

// LiveState is what a run exposes live. Worker phase, procedure, query
// and punch counts, the deepest spawn and node deaths are a fold over
// the event stream (Event); the rest is the last published Gauges. Steal
// scans and parks are not events and are marked directly. A nil
// *LiveState is disabled: Snapshot and the Worker* marks are nil-safe.
type LiveState struct {
	engine         string
	epoch          time.Time
	workersPerNode int

	gauges   atomic.Pointer[Gauges]
	maxDepth atomic.Int64
	workers  []workerLive
	dead     []atomic.Bool
}

// NewLiveState returns the live cell set for a run: engine is the
// engine name ("barrier", "async", "dist"), workers the worker-slot
// count, nodes the cluster size (0 for the single-machine engines), and
// epoch the run's wall-clock start.
func NewLiveState(engine string, workers, nodes int, epoch time.Time) *LiveState {
	ls := &LiveState{engine: engine, epoch: epoch, workers: make([]workerLive, max(workers, 0))}
	if nodes > 0 {
		ls.dead = make([]atomic.Bool, nodes)
		ls.workersPerNode = workers / nodes
	}
	return ls
}

// Publish replaces the published gauges with g. Negative forest counts
// (a derived blocked = live - ready - running can go transiently
// negative) are clamped to zero.
func (ls *LiveState) Publish(g Gauges) {
	for _, v := range []*int64{&g.Forest.Live, &g.Forest.Ready, &g.Forest.Blocked, &g.Forest.Running} {
		*v = max(*v, 0)
	}
	ls.gauges.Store(&g)
}

func (ls *LiveState) worker(node, w int) *workerLive {
	if ls == nil || w < 0 {
		return nil
	}
	if i := node*ls.workersPerNode + w; i >= 0 && i < len(ls.workers) {
		return &ls.workers[i]
	}
	return nil
}

// Event implements Tracer: punch-start and punch-end move a worker
// between running and idle (the proc/query cells keep their last value,
// so a snapshot still says what the worker worked on most recently), a
// spawn's depth (N) raises the max-depth gauge, a node-kill marks the
// node dead.
func (ls *LiveState) Event(ev Event) {
	switch ev.Type {
	case EvPunchStart:
		if c := ls.worker(ev.Node, ev.Worker); c != nil {
			c.proc.Store(ev.Proc)
			c.query.Store(int64(ev.Query))
			c.phase.Store(int32(WorkerRunning))
		}
	case EvPunchEnd:
		if c := ls.worker(ev.Node, ev.Worker); c != nil {
			c.punches.Add(1)
			c.phase.Store(int32(WorkerIdle))
		}
	case EvSpawn:
		for old := ls.maxDepth.Load(); ev.N > old && !ls.maxDepth.CompareAndSwap(old, ev.N); old = ls.maxDepth.Load() {
		}
	case EvNodeKill:
		if ev.Node >= 0 && ev.Node < len(ls.dead) {
			ls.dead[ev.Node].Store(true)
		}
	}
}

// WorkerStealing marks worker w scanning for work to steal.
func (ls *LiveState) WorkerStealing(w int) {
	if c := ls.worker(0, w); c != nil {
		c.phase.Store(int32(WorkerStealing))
	}
}

// WorkerParked marks worker w parked with no runnable work.
func (ls *LiveState) WorkerParked(w int) {
	if c := ls.worker(0, w); c != nil {
		c.phase.Store(int32(WorkerParked))
	}
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

// SumDBState is the summary database's live view: its size and its
// answering traffic, read from the database's counters. In the
// distributed engine the view aggregates every node's database, so
// Summaries counts gossip replicas too.
type SumDBState struct {
	Summaries int64 `json:"summaries"`
	YesHits   int64 `json:"yes_hits"`
	NoHits    int64 `json:"no_hits"`
	Misses    int64 `json:"misses"`
	MemoHits  int64 `json:"memo_hits"`
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

// StateSnapshot is one moment of a run, assembled for JSON. The
// published gauges are one consistent cut taken at the engine's latest
// safe point; the event folds (worker cells, max depth, node deaths) are
// read individually and may be a little ahead of it — see DESIGN.md's
// snapshot-consistency notes.
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

// Snapshot assembles the published gauges and the folds into a
// StateSnapshot (nil on a nil receiver). Engine-specific extras (SumDB,
// Solver) are layered on by the snapshot function the engine registers
// with Probe.Attach.
func (ls *LiveState) Snapshot() *StateSnapshot {
	if ls == nil {
		return nil
	}
	var g Gauges
	if p := ls.gauges.Load(); p != nil {
		g = *p
	}
	s := &StateSnapshot{
		Engine:     ls.engine,
		ElapsedNs:  int64(time.Since(ls.epoch)),
		VTime:      g.VTime,
		Iterations: g.Iterations,
		Forest:     g.Forest,
		Coalescer:  g.Coalescer,
		Workers:    make([]WorkerState, len(ls.workers)),
	}
	s.Forest.MaxDepth = ls.maxDepth.Load()
	for i := range ls.workers {
		c := &ls.workers[i]
		w := WorkerState{
			Worker:  i,
			Phase:   WorkerPhase(c.phase.Load()).String(),
			Query:   c.query.Load(),
			Punches: c.punches.Load(),
		}
		w.Proc, _ = c.proc.Load().(string)
		if ls.workersPerNode > 0 {
			w.Node = i / ls.workersPerNode
		}
		s.Workers[i] = w
	}
	if len(ls.dead) == 0 {
		return s
	}
	s.Nodes = make([]NodeState, len(ls.dead))
	var busySum, busyMax int64
	liveNodes := 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if i < len(g.Nodes) {
			*n = g.Nodes[i]
		}
		n.Node, n.Dead = i, ls.dead[i].Load()
		if !n.Dead {
			liveNodes++
			busySum += n.BusyTicks
			busyMax = max(busyMax, n.BusyTicks)
		}
	}
	if liveNodes > 0 && busySum > 0 {
		s.NodeSkew = float64(busyMax) / (float64(busySum) / float64(liveNodes))
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
