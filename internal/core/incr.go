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
// the cone (still sound — see the incr package comment). Of the
// provenance records it reads only their heads: no formula is decoded.
func prepareIncr(prog *cfg.Program, st store.Store, q0 summary.Question) incrPrep {
	var p incrPrep
	note := func(err error) {
		if err != nil && p.err == nil {
			p.err = err
		}
	}
	newMan := incr.Snapshot(prog)
	oldMan, err := st.LoadManifest()
	if err != nil {
		note(err)
		oldMan = nil // no usable manifest: everything is stale
	}
	recs, err := st.LoadProv(false)
	note(err)
	pl := planIncr(prog, newMan, oldMan, recs, q0)
	p.edited, p.full = pl.edited, pl.full

	if stale := pl.stale; p.full || len(stale) > 0 {
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
	for _, i := range pl.retract {
		note(st.PutProv(wire.ProvRecord{Root: recs[i].Root, RootKey: recs[i].RootKey, Verdict: retractedVerdict}))
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

	if pl.reuse {
		p.reuse = true
		p.verdict = pl.verdict
		p.surviving = st.Count()
	}
	return p
}

// incrPlan is what a re-check decides before it touches the store.
type incrPlan struct {
	// edited and full are incrPrep's.
	edited []string
	full   bool
	// stale is the invalidation cone; retract indexes the provenance
	// records whose standing verdicts it reaches.
	stale   []string
	retract []int
	// reuse is set when the persisted verdict answers the root question.
	reuse   bool
	verdict Verdict
}

// planIncr decides a re-check of prog from the store's manifest (nil when
// there is none) and provenance records (oldest first) without changing
// anything. The cone is taken over the program's static
// call graph unioned with every record's adjacency; the newest record of
// a root question is the answer that stands for it.
func planIncr(prog *cfg.Program, newMan, oldMan incr.Manifest, recs []wire.ProvRecord, q0 summary.Question) incrPlan {
	var pl incrPlan
	pl.full = len(oldMan) == 0
	if pl.full {
		pl.edited = make([]string, 0, len(newMan))
		for name := range newMan {
			pl.edited = append(pl.edited, name)
		}
		sort.Strings(pl.edited)
	} else {
		pl.edited = incr.Diff(oldMan, newMan)
	}

	deps := prog.CallGraph()
	latest := map[string]int{}
	for i := range recs {
		deps = incr.MergeDeps(deps, recs[i].Deps)
		if recs[i].RootKey != "" {
			latest[recs[i].RootKey] = i // records are oldest-first
		}
	}
	plan := incr.PlanInvalidation(pl.edited, deps, q0.Proc)
	pl.stale = plan.Stale

	for i, rec := range recs {
		if j, ok := latest[rec.RootKey]; !ok || j != i || !(pl.full || slices.Contains(plan.Stale, rec.Root)) {
			continue
		}
		if _, standing := parseVerdict(rec.Verdict); standing {
			pl.retract = append(pl.retract, i)
		}
	}

	// Verdict reuse: nothing the root (transitively) depends on was
	// edited, so the persisted verdict for this exact question is still
	// the answer. Unknown verdicts are never reused — a re-run may have
	// more budget.
	rootKey, _ := wire.QuestionKey(q0)
	if i, ok := latest[rootKey]; ok && !pl.full && !plan.RootAffected {
		pl.verdict, pl.reuse = parseVerdict(recs[i].Verdict)
	}
	return pl
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
