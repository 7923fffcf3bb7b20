// Incremental re-analysis: before a warm run hydrates from the store,
// prepareIncr diffs the program against the store's manifest, plans the
// invalidation cone (internal/incr), discards exactly the stale
// summaries, and decides whether the persisted verdict can be reused
// outright. reducer.begin is the one caller.

package core

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/incr"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// incrPrep is what prepareIncr hands back to an engine.
type incrPrep struct {
	// edited is the procedures whose content changed since the manifest
	// was written (every procedure on a full invalidation).
	edited []string
	// invalidated counts summaries discarded from the store; perProc
	// breaks the count down for the distributed engine's routing.
	invalidated int
	perProc     map[string]int
	// surviving is the store's summary count after invalidation, or -1
	// when the store cannot report one.
	surviving int
	// reuse is set when the root lies outside the stale cone and a
	// persisted verdict for this exact question exists: the engine may
	// return verdict without running.
	reuse   bool
	verdict Verdict
	// skipLoad / skipAll implement the fallback for stores without the
	// Deleter capability: stale summaries are filtered out at hydration
	// time instead of deleted.
	skipLoad map[string]bool
	skipAll  bool
	// full marks a run with no usable manifest: everything is stale and
	// the re-check degrades to a (sound) cold run.
	full bool
	err  error
}

// prepareIncr plans and applies invalidation against st for a re-check
// of prog. It must run before the engine hydrates its database. Store
// capabilities degrade gracefully: no ManifestStore or no stored
// manifest means full invalidation; no Deleter means stale summaries
// are skipped at load time; no ProvStore means the static call graph
// alone drives the cone (still sound — see the incr package comment).
func prepareIncr(prog *cfg.Program, st store.Store, q0 summary.Question) incrPrep {
	p := incrPrep{surviving: -1}
	newMan := incr.Snapshot(prog)
	var oldMan map[string]store.Fingerprint
	ms, hasManifest := st.(store.ManifestStore)
	if hasManifest {
		m, err := ms.LoadManifest()
		if err != nil {
			p.err = err
		} else {
			oldMan = m
		}
	}
	p.full = len(oldMan) == 0
	if p.full {
		p.edited = make([]string, 0, len(newMan))
		for name := range newMan {
			p.edited = append(p.edited, name)
		}
		sort.Strings(p.edited)
	} else {
		p.edited = incr.Diff(oldMan, newMan)
	}

	// The dependency graph for the cone: the edited program's static
	// call graph unioned with every persisted provenance adjacency.
	deps := prog.CallGraph()
	var reuseRec *wire.ProvRecord
	rootKey, _ := wire.QuestionKey(q0)
	if ps, ok := st.(store.ProvStore); ok {
		recs, err := ps.LoadProv()
		if err != nil && p.err == nil {
			p.err = err
		}
		for i := range recs {
			deps = incr.MergeDeps(deps, recs[i].Deps)
			if rootKey != "" && recs[i].RootKey == rootKey {
				reuseRec = &recs[i] // records are oldest-first; keep the latest
			}
		}
	}
	plan := incr.PlanInvalidation(p.edited, deps, q0.Proc)

	if del, ok := st.(store.Deleter); ok {
		var removed map[string]int
		var err error
		switch {
		case p.full:
			removed, err = del.DeleteProcs(nil) // nil = everything
		case len(plan.Stale) > 0:
			removed, err = del.DeleteProcs(plan.Stale)
		}
		if err != nil && p.err == nil {
			p.err = err
		}
		p.perProc = removed
		for _, n := range removed {
			p.invalidated += n
		}
	} else if p.full {
		p.skipAll = true
	} else {
		p.skipLoad = make(map[string]bool, len(plan.Stale))
		for _, proc := range plan.Stale {
			p.skipLoad[proc] = true
		}
	}

	// The manifest is replaced right after invalidation, not at run end:
	// survivors + new manifest is a consistent store state even if the
	// run crashes before persisting fresh summaries (the next re-check
	// just finds nothing extra to invalidate).
	if hasManifest {
		if err := ms.PutManifest(newMan); err != nil && p.err == nil {
			p.err = err
		}
	}

	// Verdict reuse: nothing the root (transitively) depends on was
	// edited, so the persisted verdict for this exact question is still
	// the answer. Unknown verdicts are never reused — a re-run may have
	// more budget.
	if !p.full && !plan.RootAffected && reuseRec != nil {
		if v, ok := parseVerdict(reuseRec.Verdict); ok {
			p.reuse = true
			p.verdict = v
			if c, ok := st.(interface{ Count() int }); ok {
				p.surviving = c.Count()
			}
		}
	}
	return p
}

// parseVerdict maps a persisted verdict render back to the enum;
// Unknown (or anything unrecognized) is not reusable.
func parseVerdict(s string) (Verdict, bool) {
	switch s {
	case Safe.String():
		return Safe, true
	case ErrorReachable.String():
		return ErrorReachable, true
	}
	return Unknown, false
}
