// Package obs is the observability layer shared by the three BOLT
// engines (barrier, streaming, distributed): typed query-lifecycle
// events delivered to a Tracer, an atomic Metrics registry snapshotted
// into results, and runtime/pprof integration (labels around PUNCH
// execution plus an optional HTTP profiling endpoint).
//
// The hot-path contract is zero allocation when disabled: a nil Tracer
// and a nil *Metrics each cost exactly one branch per would-be
// observation. Engines guard every emission with `if tracer != nil`
// and every counter update goes through nil-receiver-safe methods, so
// runs without instrumentation behave as before this layer existed
// (BenchmarkObsOverhead in the repository root measures the difference).
package obs

import (
	"fmt"
	"time"

	"repro/internal/query"
	"repro/internal/summary"
)

// EventType labels a query-lifecycle event.
type EventType uint8

// Event types, covering the full life of a query plus the scheduler
// and cluster events around it.
const (
	// EvSpawn: a query was created (root or child) and entered Ready;
	// N is its depth (distance from the root).
	EvSpawn EventType = iota
	// EvReady: a live query was re-enqueued Ready after a PUNCH slice
	// exhausted its step budget without finishing.
	EvReady
	// EvPunchStart and EvPunchEnd bracket one PUNCH invocation; the
	// pair becomes one span on the worker's track in the Chrome trace.
	// The end carries the abstract cost in Cost and the step's wall
	// nanoseconds in N.
	EvPunchStart
	EvPunchEnd
	// EvBlock: a PUNCH invocation returned its query Blocked on
	// unanswered children.
	EvBlock
	// EvWake: a Blocked query was made Ready again — its child
	// completed, a gossip delivery arrived, a mid-flight rewake fired
	// (N = 1 marks that one), or failover re-routed it.
	EvWake
	// EvSteal: a streaming-engine worker stole a query from another
	// worker's deque; N is the victim worker.
	EvSteal
	// EvDone: a query was answered.
	EvDone
	// EvGC: REDUCE removed a Done query's subtree; N is the number of
	// queries collected.
	EvGC
	// EvGossipSend and EvGossipRecv: one summary delivery between nodes
	// of the distributed simulation; N is the payload size in bytes.
	EvGossipSend
	EvGossipRecv
	// EvNodeKill: fault injection removed a node from the cluster.
	EvNodeKill
	// EvCoalesce: a freshly spawned child matched a live in-flight query
	// and was coalesced onto it instead of growing a duplicate subtree;
	// Query is the duplicate child that was dropped, Parent the spawning
	// parent registered as a waiter, N the twin query answering for both.
	EvCoalesce
	// EvSumRead and EvSumAdd: one PUNCH invocation's SUMDB traffic,
	// emitted right after its EvPunchEnd and only when provenance is
	// collected. A read is a summary that answered a question, or, with
	// N = 1, a ForProc scan of Sum.Proc (Sum carries only the procedure);
	// an add is a summary the invocation published. A warm load from the
	// store is an add with Query = query.NoParent.
	EvSumRead
	EvSumAdd

	numEventTypes
)

var eventNames = [numEventTypes]string{
	"spawn", "ready", "punch-start", "punch-end", "block", "wake",
	"steal", "done", "gc", "gossip-send", "gossip-recv", "node-kill",
	"coalesce", "sum-read", "sum-add",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Event is one timestamped query-lifecycle observation. Fields beyond
// Type are populated where they make sense for the event (zero
// otherwise); both clocks are always stamped.
type Event struct {
	Type   EventType
	Query  query.ID
	Parent query.ID
	Proc   string
	// Worker is the worker slot the event belongs to: the MAP batch
	// slot in the barrier engine, the pool member in the streaming
	// engine, the per-node thread slot in the distributed simulation.
	Worker int
	// Node is the owning node in the distributed simulation (always 0
	// for the single-machine engines).
	Node int
	// VTime is the engine's virtual clock when the event fired; Wall is
	// elapsed wall-clock time since the run started.
	VTime int64
	Wall  time.Duration
	// Cost is the PUNCH invocation's abstract cost (EvPunchEnd only).
	Cost int64
	// N is the event's payload: depth for EvSpawn, wall nanoseconds for
	// EvPunchEnd, the rewake mark for EvWake, victim worker for EvSteal,
	// queries collected for EvGC, payload bytes for the gossip events,
	// the twin for EvCoalesce, the scan mark for EvSumRead.
	N int64
	// Sum is the summary of EvSumRead and EvSumAdd (nil otherwise).
	Sum *summary.Summary
}

// Tracer receives the event stream of a run. A run emits from one
// goroutine at a time — the batch loop from its own goroutine between
// MAP stages, the streaming pool under its scheduler lock — so the stream
// is totally ordered. Implementations must still be safe for concurrent
// use: several runs may share one tracer, and the live probe and the
// flight recorder are read while a run writes. A nil Tracer disables
// tracing — engines guard each emission with a single nil check and
// build no Event behind it.
type Tracer interface {
	Event(Event)
}
