// Incremental re-analysis: before a warm run hydrates from the store,
// prepareIncr diffs the program against the store's manifest, plans the
// invalidation cone (internal/incr), discards exactly the stale
// summaries, retracts the verdicts the edit reaches, and decides whether
// the persisted verdict can be reused outright. reducer.begin is the one
// caller.

package core

import (
	"slices"
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
	// surviving is the store's summary count after invalidation, set
	// when the verdict is reused.
	surviving int
	// reuse is set when the root lies outside the stale cone and a
	// persisted verdict for this exact question exists: the engine may
	// return verdict without running.
	reuse   bool
	verdict Verdict
	// full marks a run with no usable manifest: everything is stale and
	// the re-check degrades to a (sound) cold run.
	full bool
	err  error
}

// prepareIncr plans and applies invalidation against st for a re-check
// of prog. It must run before the engine hydrates its database. A store
// with no manifest (or one that fails to load) means full invalidation;
// a store with no provenance leaves the static call graph alone to drive
// the cone (still sound — see the incr package comment).
func prepareIncr(prog *cfg.Program, st store.Store, q0 summary.Question) incrPrep {
	var p incrPrep
	note := func(err error) {
		if err != nil && p.err == nil {
			p.err = err
		}
	}
	newMan := incr.Snapshot(prog)
	oldMan, err := st.LoadManifest()
	note(err)
	p.full = err != nil || len(oldMan) == 0
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
	// latest is the newest record on file per root question: the answer
	// that stands for it.
	deps := prog.CallGraph()
	latest := map[string]int{}
	recs, err := st.LoadProv()
	note(err)
	for i := range recs {
		deps = incr.MergeDeps(deps, recs[i].Deps)
		if recs[i].RootKey != "" {
			latest[recs[i].RootKey] = i // records are oldest-first
		}
	}
	plan := incr.PlanInvalidation(p.edited, deps, q0.Proc)

	if stale := plan.Stale; p.full || len(stale) > 0 {
		if p.full {
			stale = nil // nil = everything
		}
		p.perProc, err = st.DeleteProcs(stale)
		note(err)
		for _, n := range p.perProc {
			p.invalidated += n
		}
	}

	// A verdict on file speaks for the program the manifest describes.
	// Every standing verdict whose root lies in the stale cone is
	// retracted — a record without a verdict becomes the newest for its
	// question — before the new manifest is put, so a run that dies
	// between the manifest and its own provenance record cannot leave the
	// old answer standing beside the new program.
	for i, rec := range recs {
		if j, ok := latest[rec.RootKey]; !ok || j != i || !(p.full || slices.Contains(plan.Stale, rec.Root)) {
			continue
		}
		if _, standing := parseVerdict(rec.Verdict); standing {
			note(st.PutProv(wire.ProvRecord{Root: rec.Root, RootKey: rec.RootKey, Verdict: retractedVerdict}))
		}
	}

	// The manifest is replaced right after invalidation, not at run end:
	// survivors + new manifest is a consistent store state even if the
	// run crashes before persisting fresh summaries (the next re-check
	// just finds nothing extra to invalidate). It is put strictly after
	// the deletions and retractions and only when they succeeded; the
	// store keeps records in the order they were put, so a new manifest is
	// never seen beside a summary or a verdict it made stale.
	if p.err == nil {
		note(st.PutManifest(newMan))
	}

	// Verdict reuse: nothing the root (transitively) depends on was
	// edited, so the persisted verdict for this exact question is still
	// the answer. Unknown verdicts are never reused — a re-run may have
	// more budget.
	rootKey, _ := wire.QuestionKey(q0)
	if i, ok := latest[rootKey]; ok && !p.full && !plan.RootAffected {
		if v, ok := parseVerdict(recs[i].Verdict); ok {
			p.reuse = true
			p.verdict = v
			p.surviving = st.Count()
		}
	}
	return p
}

// retractedVerdict is what a provenance record carries in place of a
// verdict once an edit reached its root.
const retractedVerdict = "retracted"

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
