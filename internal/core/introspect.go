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
// folds and published gauges plus live SUMDB size and traffic —
// aggregated over every tree's database, so a cluster's summary counts
// include gossip replicas — and solver counters. db.StatsSnapshot and
// solver are safe to call concurrently with a running analysis, so the
// closure may fire from any goroutine at any time.
func attachProbe(p *obs.Probe, ls *obs.LiveState, dbs []*summary.DB, solver func() smt.Stats) {
	p.Attach(func() *obs.StateSnapshot {
		s := ls.Snapshot()
		s.SumDB = sumdbState(aggregateStats(dbs))
		s.Solver = solverState(solver())
		return s
	})
}

// sumdbState converts a summary.Stats snapshot into the obs view.
func sumdbState(st summary.Stats) *obs.SumDBState {
	return &obs.SumDBState{
		Summaries: st.Added,
		YesHits:   st.YesHits,
		NoHits:    st.NoHits,
		Misses:    st.Misses,
		MemoHits:  st.MemoHits,
	}
}

// solverState converts an smt.Stats snapshot into the obs view.
func solverState(sv smt.Stats) *obs.SolverState {
	return &obs.SolverState{
		SatCalls:          sv.SatCalls,
		TheoryChecks:      sv.TheoryChecks,
		DPLLConflicts:     sv.DPLLConflicts,
		LearnedClauses:    sv.LearnedClauses,
		Propagations:      sv.Propagations,
		EntailCacheHits:   sv.EntailCacheHits,
		EntailCacheMisses: sv.EntailCacheMisses,
		EntailSynHits:     sv.EntailSynHits,
		HashConsHits:      sv.HashConsHits,
		Memos:             solverMemos(sv),
	}
}

// solverMemos names the fill of the solver's memos for the live snapshot
// and the metrics registry.
func solverMemos(sv smt.Stats) []obs.MemoState {
	st := func(name string, m smt.MemoStats) obs.MemoState {
		return obs.MemoState{Name: name, Entries: m.Entries, Capacity: m.Capacity, TurnedAway: m.TurnedAway}
	}
	return []obs.MemoState{st("sat", sv.SatMemo), st("cube", sv.CubeMemo), st("entail", sv.EntailMemo),
		st("step", sv.StepMemo), st("simplify", sv.SimplifyMemo)}
}
