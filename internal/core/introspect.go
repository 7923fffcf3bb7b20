// Live-introspection wiring shared by the three engines: each run that
// was handed an obs.Probe builds an obs.LiveState, publishes its gauges
// (reducer.publish) at the scheduler's safe points (the streaming engine
// under its scheduler mutex, the barrier and distributed engines at
// stage/round boundaries), and attaches a snapshot function that layers the
// concurrent-safe SUMDB and solver counters on top of the live state. A
// nil probe costs each publish site one branch, like the tracer and
// metrics hooks.
package core

import (
	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/summary"
)

// attachProbe registers the run's snapshot function: the LiveState's
// folds and published gauges plus the live SUMDB traffic — summed over
// every tree's database, so a cluster's summary counts include gossip
// replicas — and the solver's counters. summary.StatsOf and
// solver.StatsSnapshot are safe to call concurrently with a running
// analysis, so the closure may fire from any goroutine at any time.
func attachProbe(p *obs.Probe, ls *obs.LiveState, dbs []*summary.DB, solver *smt.Solver) {
	p.Attach(func() *obs.StateSnapshot {
		s := ls.Snapshot()
		st, sv := summary.StatsOf(dbs...), solver.StatsSnapshot()
		s.SumDB, s.Solver = &st, &sv
		return s
	})
}
