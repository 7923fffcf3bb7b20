// Run-lifecycle layer shared by the three engines (barrier, streaming,
// distributed): one audited vocabulary for why a run ended, plus the
// fault-injection plan the distributed simulation executes. Before this
// layer each engine hand-rolled its own break/bool logic, and the edge
// cases diverged (timeout vs deadlock conflation, lost mid-batch Done
// counts, bare Unknown on all-blocked clusters); every termination path
// now records exactly one StopReason.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/wire"
)

// StopReason explains why a run terminated. Exactly one reason is
// recorded per run; the first stop condition to fire wins, except that an
// answered root always reports RootAnswered (a verdict found in the same
// instant as a budget stop is still a verdict).
type StopReason int

// Stop reasons, in rough priority order.
const (
	// StopNone: the run has not terminated (zero value; never returned by
	// a completed Run).
	StopNone StopReason = iota
	// StopRootAnswered: the root question was answered; the Verdict field
	// holds the answer.
	StopRootAnswered
	// StopWallTimeout: the wall-clock budget (RealTimeout) expired.
	StopWallTimeout
	// StopTickBudget: the virtual-time budget (MaxVirtualTicks) expired.
	StopTickBudget
	// StopEventBudget: the iteration/event/round budget (MaxIterations,
	// its event-count analogue in the streaming engine, or MaxRounds in
	// the distributed simulation) was exhausted.
	StopEventBudget
	// StopDeadlocked: every live query is Blocked and no child can ever
	// answer, so the analysis is stuck short of any budget.
	StopDeadlocked
	// StopCancelled: the context passed to RunContext was cancelled.
	StopCancelled
	// StopNodeFailure: injected faults killed every node of the
	// distributed simulation, leaving nobody to answer the root.
	StopNodeFailure
	// StopVerdictReused: an incremental re-check answered the root from
	// the persisted verdict without running — the edit's invalidation
	// cone did not touch the root question.
	StopVerdictReused
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopRootAnswered:
		return "root-answered"
	case StopWallTimeout:
		return "wall-timeout"
	case StopTickBudget:
		return "tick-budget"
	case StopEventBudget:
		return "event-budget"
	case StopDeadlocked:
		return "deadlocked"
	case StopCancelled:
		return "cancelled"
	case StopNodeFailure:
		return "node-failure"
	case StopVerdictReused:
		return "verdict-reused"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Exhausted reports whether the reason is a resource-budget stop.
// Cancellation and deadlock are not budget exhaustion.
func (r StopReason) Exhausted() bool {
	return r == StopWallTimeout || r == StopTickBudget || r == StopEventBudget
}

// Faults is the fault-injection plan for the distributed simulation
// (DistOptions.Faults): kill one node at the start of a given round, and
// drop gossip deliveries with seeded randomness. A dropped delivery is
// not acknowledged (the receiver's dedup set is left unmarked), so it is
// retried at the next exchange — injected drop is therefore also injected
// delay. All randomness flows from Seed, keeping faulty runs replayable.
type Faults struct {
	// KillNode is the node to kill (-1 = no kill).
	KillNode int
	// KillRound is the round at whose start the node dies. Rounds are
	// 0-based and numbered over the whole run, an incremental re-check's
	// re-proofs included; a kill round the run never reaches injects
	// nothing.
	KillRound int
	// GossipDrop is the probability in [0,1) that one summary delivery is
	// dropped (deferred to a later exchange) during a periodic gossip.
	// Deadlock-recovery exchanges are exempt: they model a reliable
	// anti-entropy repair, so injected loss can delay but never wedge the
	// cluster.
	GossipDrop float64
	// Seed seeds the drop randomness.
	Seed int64
}

// NoFaultNode marks a Faults plan with no kill.
const NoFaultNode = -1

// instr bundles one run's observability hooks, shared by the three
// engines. tr is the run's one Tracer: the caller's tracer, the
// provenance fold, the metrics registry and the live state composed, nil
// when all four are absent, so every emission site pays one
// `if in.tr != nil` branch and builds no Event behind it. The fold, the
// registry and the live state are folds over that stream; m and ls are
// kept beside it only for what is not an event
// (steal scans, parks, gossip rounds, the published gauges, the final
// snapshot). The zero instr is fully disabled.
type instr struct {
	tr     obs.Tracer
	m      *obs.Metrics
	ls     *obs.LiveState
	epoch  time.Time
	labels bool
	// wire is deliver's encoding buffer.
	wire []byte
}

// newInstr composes the hooks for a run of nodes × width worker slots.
func newInstr(tr obs.Tracer, fold *prov.Fold, m *obs.Metrics, ls *obs.LiveState, nodes, width int, epoch time.Time, labels bool) instr {
	m.EnsureWorkers(nodes, width)
	sinks := []obs.Tracer{tr}
	if fold != nil {
		sinks = append(sinks, fold)
	}
	if m != nil {
		sinks = append(sinks, m)
	}
	if ls != nil {
		sinks = append(sinks, ls)
	}
	return instr{tr: obs.Tee(sinks...), m: m, ls: ls, epoch: epoch, labels: labels}
}

// emit stamps ev with the run-relative wall clock and hands it to the
// tracer. Callers guard with `if in.tr != nil`.
func (in *instr) emit(ev obs.Event) {
	ev.Wall = time.Since(in.epoch)
	in.tr.Event(ev)
}

// scan and park record a streaming worker's steal scan and park: a
// counter and a worker phase, neither of them an event.
func (in *instr) scan(worker int) {
	in.m.Inc(obs.StealsAttempted)
	in.ls.WorkerStealing(worker)
}

func (in *instr) park(worker int) {
	in.m.Inc(obs.IdleParks)
	in.ls.WorkerParked(worker)
}

// deliver records one summary delivery between nodes of the distributed
// simulation as a send/receive event pair keyed by the endpoints, each
// carrying the summary's wire size, what a real cluster would ship. The
// summary is encoded only for a tracer.
func (in *instr) deliver(from, to int, s summary.Summary, vtime int64) {
	if in.tr == nil {
		return
	}
	in.wire, _ = wire.AppendSummary(in.wire[:0], s)
	n := int64(len(in.wire))
	in.emit(obs.Event{Type: obs.EvGossipSend, Proc: s.Proc, Node: from, VTime: vtime, N: n})
	in.emit(obs.Event{Type: obs.EvGossipRecv, Proc: s.Proc, Node: to, VTime: vtime, N: n})
}

// finish snapshots the registry (nil when metrics were off), stamping
// the run's makespan and folding in the summary databases' and the
// solver's own counters under the keys their Each names. Those counters
// live as atomics in the layers (smt cannot import obs), so this fold is
// what routes them into Result.Metrics.
func (in *instr) finish(makespan int64, st summary.Stats, sv smt.Stats) *obs.Snapshot {
	snap := in.m.Snapshot()
	if snap == nil {
		return nil
	}
	snap.MakespanTicks = makespan
	put := func(key string, v int64) { snap.Counters[key] = v }
	st.Each(put)
	sv.Each(put)
	return snap
}

// ParseFaults parses a command-line fault spec of the form
//
//	kill=N@R,drop=P,seed=S
//
// where every clause is optional (an empty spec returns nil: no faults).
// Examples: "kill=1@3", "drop=0.2,seed=42", "kill=0@5,drop=0.1".
func ParseFaults(spec string) (*Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	f := &Faults{KillNode: NoFaultNode}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "kill":
			node, round, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: kill=%q is not NODE@ROUND", val)
			}
			n, err := strconv.Atoi(node)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: bad kill node %q", node)
			}
			r, err := strconv.Atoi(round)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("faults: bad kill round %q", round)
			}
			f.KillNode, f.KillRound = n, r
		case "drop":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p >= 1 {
				return nil, fmt.Errorf("faults: drop=%q is not a probability in [0,1)", val)
			}
			f.GossipDrop = p
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			f.Seed = s
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
	}
	return f, nil
}
