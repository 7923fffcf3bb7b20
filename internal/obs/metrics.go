package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// Counter indexes one engine counter in the Metrics registry.
type Counter int

// Registry counters. Every engine updates the subset that applies to
// it; the rest stay zero.
const (
	// QueriesSpawned counts queries ever created (root + children).
	QueriesSpawned Counter = iota
	// QueriesDone counts queries answered.
	QueriesDone
	// QueriesGCd counts queries removed by REDUCE's subtree collection.
	QueriesGCd
	// QueriesBlocked counts PUNCH returns in the Blocked state.
	QueriesBlocked
	// Wakes counts Blocked→Ready transitions (child done, gossip
	// arrival, failover).
	Wakes
	// Rewakes counts mid-flight rewakes in the streaming engine: a
	// child completed while its parent was inside PUNCH, so the parent
	// was re-enqueued immediately on returning Blocked.
	Rewakes
	// StealsAttempted counts streaming-engine victim scans (the owner's
	// deque was empty); StealsSucceeded counts scans that found work.
	StealsAttempted
	StealsSucceeded
	// IdleParks counts times a streaming worker found no runnable work
	// anywhere and parked on the condition variable.
	IdleParks
	// PunchInvocations counts PUNCH calls across all workers.
	PunchInvocations
	// GossipRounds counts gossip exchanges in the distributed
	// simulation; GossipDeliveries individual summary deliveries;
	// GossipBytes their cumulative payload.
	GossipRounds
	GossipDeliveries
	GossipBytes
	// NodeKills counts nodes removed by fault injection.
	NodeKills
	// CoalesceHits counts spawned children coalesced onto a live
	// in-flight twin instead of growing a duplicate subtree.
	CoalesceHits
	// ProvSummaryReads counts summaries that answered a question
	// (EvSumRead), ProvProcReads ForProc scans (EvSumRead with N = 1),
	// ProvSummaryWrites summaries PUNCH published (EvSumAdd with a
	// query). All three stay zero unless provenance collection is on.
	ProvSummaryReads
	ProvSummaryWrites
	ProvProcReads
	// ShelfShelved counts region graphs finished queries left on their
	// node's shelf, ShelfTaken those a later query of the same procedure
	// and postcondition started from, ShelfEvicted those dropped untaken
	// (punch.Shelf): summed over nodes when the run ends.
	ShelfShelved
	ShelfTaken
	ShelfEvicted
	// IncrCutoffHits counts incremental re-checks whose re-proof of the
	// edited procedure's interface held, so the edit stopped there;
	// IncrCutoffFallbacks those that tried and fell back to the whole
	// cone; IncrReproofs the interface questions they asked.
	IncrCutoffHits
	IncrCutoffFallbacks
	IncrReproofs

	numCounters
)

var counterNames = [numCounters]string{
	"queries_spawned", "queries_done", "queries_gcd", "queries_blocked",
	"wakes", "rewakes", "steals_attempted", "steals_succeeded",
	"idle_parks", "punch_invocations", "gossip_rounds",
	"gossip_deliveries", "gossip_bytes", "node_kills",
	"coalesce_hits", "prov_summary_reads", "prov_summary_writes",
	"prov_proc_reads",
	"shelf_shelved", "shelf_taken", "shelf_evicted",
	"incr_cutoff_hits", "incr_cutoff_fallbacks", "incr_reproofs",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter_unknown"
}

// histBuckets is the number of power-of-two histogram buckets: bucket b
// counts observations v with bits.Len64(v) == b, i.e. v in
// [2^(b-1), 2^b). Bucket 0 holds zeros; the last bucket is a catch-all.
const histBuckets = 40

// Histogram is a lock-free power-of-two histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value (negatives are clamped to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// HistBucket is one non-empty histogram bucket: Count observations with
// value <= Le (and greater than the previous bucket's bound).
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistSnapshot { return h.snapshot() }

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			le := int64(0)
			if b > 0 {
				le = 1<<uint(b) - 1
			}
			s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: n})
		}
	}
	return s
}

// workerCell is one worker's private counters. Cells are allocated once
// by EnsureWorkers before the pool starts, so the hot path is pure
// atomic adds.
type workerCell struct {
	punches  atomic.Int64
	busyCost atomic.Int64
	busyWall atomic.Int64 // nanoseconds
	steals   atomic.Int64
}

// Metrics is the engine metrics registry. Every counter whose fact is a
// lifecycle event — spawns, answers, collections, blocks, wakes, steals,
// PUNCH invocations with both histograms and the per-worker ledger,
// gossip deliveries, node kills, coalesce hits, provenance traffic — is
// a fold over the event stream (Event); the rest (steal scans, parks,
// gossip rounds, the region-graph shelves) are written directly
// through Inc and Add. A nil *Metrics is disabled: Inc, Add, Get,
// EnsureWorkers and Snapshot are nil-receiver safe. All methods are safe
// for concurrent use.
type Metrics struct {
	counters  [numCounters]atomic.Int64
	punchCost Histogram
	punchWall Histogram
	coneSize  Histogram

	mu      sync.RWMutex
	workers []*workerCell
	width   int // worker slots per node: a cell is node*width + worker
}

// NewMetrics returns an enabled, empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds one to a counter.
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Add adds d to a counter.
func (m *Metrics) Add(c Counter, d int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(d)
}

// Get reads a counter (0 on a nil registry).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// EnsureWorkers grows the per-worker table to at least nodes*width cells
// and maps an event's (node, worker) to cell node*width + worker.
// Engines call it once before their pool starts so the fold never
// allocates.
func (m *Metrics) EnsureWorkers(nodes, width int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.width = width
	for len(m.workers) < nodes*width {
		m.workers = append(m.workers, &workerCell{})
	}
	m.mu.Unlock()
}

func (m *Metrics) worker(ev Event) *workerCell {
	m.mu.RLock()
	var w *workerCell
	if i := ev.Node*m.width + ev.Worker; ev.Worker >= 0 && i >= 0 && i < len(m.workers) {
		w = m.workers[i]
	}
	m.mu.RUnlock()
	return w
}

// Event implements Tracer: it folds one lifecycle event into the
// counters, the PUNCH histograms (EvPunchEnd carries the abstract cost
// in Cost and the wall nanoseconds in N) and the worker's ledger.
func (m *Metrics) Event(ev Event) {
	c := &m.counters
	switch ev.Type {
	case EvSpawn:
		c[QueriesSpawned].Add(1)
	case EvDone:
		c[QueriesDone].Add(1)
	case EvGC:
		c[QueriesGCd].Add(ev.N)
	case EvBlock:
		c[QueriesBlocked].Add(1)
	case EvWake:
		if ev.N != 0 {
			c[Rewakes].Add(1)
		} else {
			c[Wakes].Add(1)
		}
	case EvSteal:
		c[StealsSucceeded].Add(1)
		if w := m.worker(ev); w != nil {
			w.steals.Add(1)
		}
	case EvPunchEnd:
		c[PunchInvocations].Add(1)
		m.punchCost.Observe(ev.Cost)
		m.punchWall.Observe(ev.N)
		if w := m.worker(ev); w != nil {
			w.punches.Add(1)
			w.busyCost.Add(ev.Cost)
			w.busyWall.Add(ev.N)
		}
	case EvGossipSend:
		c[GossipDeliveries].Add(1)
		c[GossipBytes].Add(ev.N)
	case EvNodeKill:
		c[NodeKills].Add(1)
	case EvCoalesce:
		c[CoalesceHits].Add(1)
	case EvSumRead:
		if ev.N != 0 {
			c[ProvProcReads].Add(1)
		} else {
			c[ProvSummaryReads].Add(1)
		}
	case EvSumAdd:
		if ev.Query != query.NoParent {
			c[ProvSummaryWrites].Add(1)
		}
	}
}

// ObserveConeSize records one procedure's invalidation-cone size
// (procedure count) at provenance-assembly time; the distribution backs
// the bolt_prov_cone_size Prometheus histogram.
func (m *Metrics) ObserveConeSize(v int64) {
	if m == nil {
		return
	}
	m.coneSize.Observe(v)
}

// WorkerSnapshot is one worker's accounting at snapshot time.
type WorkerSnapshot struct {
	Worker     int   `json:"worker"`
	Punches    int64 `json:"punches"`
	BusyTicks  int64 `json:"busy_ticks"`
	BusyWallNs int64 `json:"busy_wall_ns"`
	Steals     int64 `json:"steals"`
}

// Snapshot is a point-in-time copy of a Metrics registry, attached to
// engine results and serialized by the CLIs.
type Snapshot struct {
	// Counters maps every registry counter name to its value; at run end
	// engines fold in the summary databases' and the solver's own
	// counters under the keys summary.Stats.Each and smt.Stats.Each name.
	Counters map[string]int64 `json:"counters"`
	// PunchCost is the distribution of per-invocation abstract cost
	// (virtual ticks); PunchWallNs of wall-clock nanoseconds.
	PunchCost   HistSnapshot `json:"punch_cost_ticks"`
	PunchWallNs HistSnapshot `json:"punch_wall_ns"`
	// ProvConeSize is the distribution of per-procedure invalidation
	// cone sizes (empty unless provenance collection was on).
	ProvConeSize HistSnapshot `json:"prov_cone_size,omitempty"`
	// Workers is the per-worker accounting (utilization = BusyTicks /
	// MakespanTicks).
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// MakespanTicks is the run's final virtual time, filled by the
	// engine so per-worker utilization is computable from the snapshot
	// alone.
	MakespanTicks int64 `json:"makespan_ticks"`
}

// Snapshot returns a consistent copy of the registry, or nil on a nil
// registry (so Result.Metrics is nil exactly when metrics were off).
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	s := &Snapshot{
		Counters:     make(map[string]int64, int(numCounters)),
		PunchCost:    m.punchCost.snapshot(),
		PunchWallNs:  m.punchWall.snapshot(),
		ProvConeSize: m.coneSize.snapshot(),
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.String()] = m.counters[c].Load()
	}
	m.mu.RLock()
	for i, w := range m.workers {
		s.Workers = append(s.Workers, WorkerSnapshot{
			Worker:     i,
			Punches:    w.punches.Load(),
			BusyTicks:  w.busyCost.Load(),
			BusyWallNs: w.busyWall.Load(),
			Steals:     w.steals.Load(),
		})
	}
	m.mu.RUnlock()
	return s
}

// Flatten renders the snapshot as a single sorted-key-friendly map —
// the public API's metric form (counters plus histogram aggregates and
// worker count; per-bucket and per-worker detail stay on the Snapshot).
func (s *Snapshot) Flatten() map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64, len(s.Counters)+8)
	for k, v := range s.Counters {
		out[k] = v
	}
	out["punch_cost_count"] = s.PunchCost.Count
	out["punch_cost_sum"] = s.PunchCost.Sum
	out["punch_cost_max"] = s.PunchCost.Max
	out["punch_wall_ns_sum"] = s.PunchWallNs.Sum
	out["punch_wall_ns_max"] = s.PunchWallNs.Max
	if s.ProvConeSize.Count > 0 {
		out["prov_cone_count"] = s.ProvConeSize.Count
		out["prov_cone_sum"] = s.ProvConeSize.Sum
		out["prov_cone_max"] = s.ProvConeSize.Max
	}
	out["makespan_ticks"] = s.MakespanTicks
	out["workers"] = int64(len(s.Workers))
	return out
}
