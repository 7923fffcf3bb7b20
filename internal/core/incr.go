// Incremental re-analysis: before a warm run hydrates from the store,
// prepareIncr diffs the program against the store's manifest, plans the
// invalidation cone (internal/incr) and decides whether the persisted
// verdict can be reused outright. When one procedure p was edited and the
// edit reaches the root, the run first re-proves p's interface — one
// question per postcondition of p's stored not-may summaries — with every
// procedure outside the cone warm (reducer.reprove). If every question
// comes back not-may and p's transitive Mod set did not grow, the edit
// stops at p: the callers keep their not-may summaries and a standing
// Safe verdict stands. Otherwise the whole cone is discarded as before.
// DESIGN.md §8.2 has the argument. reducer.begin and reducer.reprove are
// the callers.

package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// Cutoff reports an incremental re-check's attempt to stop an edit at
// the edited procedure instead of staling its callers.
type Cutoff struct {
	// Proc is the edited procedure ("" when several were edited).
	Proc string
	// Held reports that every re-proof came back not-may and the
	// procedure's Mod set did not grow: only Proc was stale.
	Held bool
	// Reproofs counts the questions asked; Ticks is the virtual time
	// they took, part of Result.VirtualTicks.
	Reproofs int
	Ticks    int64
	// Reason says why the re-check fell back to the whole cone.
	Reason string
}

// String renders the cutoff as boltcheck -incr reports it.
func (c *Cutoff) String() string {
	if c.Held {
		return fmt.Sprintf("held, %d re-proofs, %d ticks", c.Reproofs, c.Ticks)
	}
	return "fell back (" + c.Reason + ")"
}

// incrPrep is what prepareIncr hands back to the reducer.
type incrPrep struct {
	incrPlan
	st     store.Store
	recs   []wire.ProvRecord
	newMan incr.Manifest
	// invalidated counts summaries discarded from the store for good;
	// perProc breaks the count down for the distributed engine's routing.
	invalidated int
	perProc     map[string]int
	// surviving is the store's summary count after invalidation, set
	// when the verdict is reused.
	surviving int
	err       error
}

// prepareIncr plans a re-check of prog against st. It must run before
// the engine hydrates its database. A store with no manifest (or one that
// fails to load) means full invalidation; a store with no provenance
// leaves the static call graph alone to drive the cone (still sound — see
// the incr package comment). Of the provenance records it reads only
// their heads: no formula is decoded. Unless the plan tries the cutoff
// (p.cut), the invalidation is written at once; otherwise reprove writes
// it once the re-proofs are in.
func prepareIncr(prog *cfg.Program, st store.Store, q0 summary.Question) *incrPrep {
	p := &incrPrep{st: st, newMan: incr.Snapshot(prog)}
	oldMan, oldMod, err := st.LoadManifest()
	if err != nil {
		p.note(err)
		oldMan, oldMod = nil, nil // no usable manifest: everything is stale
	}
	p.recs, err = st.LoadProv()
	p.note(err)
	p.incrPlan = planIncr(prog, p.newMan, oldMan, oldMod, p.recs, q0)
	if p.cut == "" {
		p.commit(nil)
	}
	if p.reuse {
		p.surviving = st.Count()
	}
	return p
}

func (p *incrPrep) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// commit writes the edit's invalidation to the store, in the order that
// keeps every prefix of it a sound store (DESIGN.md §8.2): the
// tombstones of the stale cone, callers before their callees; the
// retraction of every standing verdict whose root lies in the cone but
// those of the records stands picks (nil picks none); then, if those
// succeeded, the new manifest with its Mod sets. kept are the summaries
// the caller puts back after the tombstones: they are not counted as
// invalidated.
func (p *incrPrep) commit(stands func(rec int) bool, kept ...summary.Summary) {
	if stale := p.stale; p.full || len(stale) > 0 {
		if p.full {
			stale = nil // nil = everything
		}
		var err error
		p.perProc, err = p.st.DeleteProcs(stale)
		p.note(err)
		for _, s := range kept {
			if n := p.perProc[s.Proc] - 1; n > 0 {
				p.perProc[s.Proc] = n
			} else {
				delete(p.perProc, s.Proc)
			}
		}
		for _, n := range p.perProc {
			p.invalidated += n
		}
	}
	// A verdict on file speaks for the program the manifest describes: a
	// record without a verdict becomes the newest for its question before
	// the new manifest is put, so a run that dies between the manifest and
	// its own provenance record cannot leave the old answer standing
	// beside the new program.
	for _, i := range p.retract {
		if stands != nil && stands(i) {
			continue
		}
		rec := p.recs[i]
		p.note(p.st.PutProv(wire.ProvRecord{Root: rec.Root, RootKey: rec.RootKey, Verdict: retractedVerdict}))
	}
	// The store keeps records in the order they were put, so a new
	// manifest is never seen beside a summary or a verdict it made stale.
	// An unchanged program appends nothing.
	if p.err == nil && len(p.edited) > 0 {
		p.note(p.st.PutManifest(p.newMan, modSets(p.modref)))
	}
}

// incrPlan is what a re-check decides before it touches the store.
type incrPlan struct {
	// edited is the procedures whose content changed since the manifest
	// was written (every procedure on a full invalidation, which full
	// marks: a run with no usable manifest degrades to a sound cold run).
	edited []string
	full   bool
	// stale is the invalidation cone, callers before callees; retract
	// indexes the provenance records whose standing verdicts it reaches.
	stale   []string
	retract []int
	// reuse is set when the root lies outside the cone and the persisted
	// verdict answers the root question.
	reuse   bool
	verdict Verdict
	// cut is the edited procedure whose interface the re-check re-proves
	// before it stales the callers, "" when it does not try; why says
	// why not when the edit reaches the root. standing is set when the
	// newest record of the root question, whose key is rootKey, says
	// Safe.
	cut      string
	why      string
	standing bool
	rootKey  string
	// modref is the program's transitive mod/ref, computed only when
	// something was edited (the manifest records its Mod sets).
	modref map[string]*cfg.ModRef
}

// planIncr decides a re-check of prog from the store's manifest and Mod
// sets (nil when there are none) and provenance records (oldest first)
// without changing anything. The cone is taken over the program's static
// call graph unioned with every record's adjacency; the newest record of
// a root question is the answer that stands for it.
func planIncr(prog *cfg.Program, newMan, oldMan incr.Manifest, oldMod map[string][]string, recs []wire.ProvRecord, q0 summary.Question) incrPlan {
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
	if len(pl.edited) > 0 {
		pl.modref = prog.ModRef()
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
	pl.stale = incr.CalleeFirst(plan.Stale, deps)
	slices.Reverse(pl.stale)

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
	pl.rootKey, _ = wire.QuestionKey(q0)
	i, onFile := latest[pl.rootKey]
	if onFile && !pl.full && !plan.RootAffected {
		pl.verdict, pl.reuse = parseVerdict(recs[i].Verdict)
	}
	if !pl.full && plan.RootAffected {
		pl.cut, pl.why = cutCandidate(pl.edited, oldMan, newMan, oldMod, pl.modref, deps, plan.Stale)
		pl.standing = onFile && recs[i].Verdict == Safe.String()
	}
	return pl
}

// cutCandidate returns the edited procedure whose interface a re-check
// may re-prove instead of staling its callers, or why there is none.
// cone is the edit's reverse closure over deps: the edited procedure is
// on a cycle exactly when one of its callees lies in it.
func cutCandidate(edited []string, oldMan, newMan incr.Manifest, oldMod map[string][]string, modref map[string]*cfg.ModRef, deps map[string][]string, cone []string) (string, string) {
	if len(edited) != 1 {
		return "", "several procedures edited"
	}
	p := edited[0]
	_, before := oldMan[p]
	_, after := newMan[p]
	switch {
	case !before || !after:
		return "", "procedure added or removed"
	case oldMod == nil:
		return "", "no Mod sets on file"
	case slices.ContainsFunc(deps[p], func(d string) bool { return slices.Contains(cone, d) }):
		return "", "on a call-graph cycle"
	}
	for g := range modref[p].Mod {
		if !slices.Contains(oldMod[p], string(g)) {
			return "", "Mod set grew"
		}
	}
	return p, ""
}

// modSets renders a program's transitive Mod sets for the manifest.
func modSets(modref map[string]*cfg.ModRef) map[string][]string {
	if modref == nil {
		return nil
	}
	out := make(map[string][]string, len(modref))
	for proc, mr := range modref {
		gs := make([]string, 0, len(mr.Mod))
		for g := range mr.Mod {
			gs = append(gs, string(g))
		}
		sort.Strings(gs)
		out[proc] = gs
	}
	return out
}

// interfaceQuestions groups proc's stored not-may summaries by
// postcondition, in the order first seen: one question (proc, ∨ pres,
// post) for each.
func interfaceQuestions(proc string, sums []summary.Summary) []summary.Question {
	var qs []summary.Question
	var pres [][]logic.Formula
	at := map[string]int{}
	for _, s := range sums {
		k := logic.Key(s.Post)
		i, ok := at[k]
		if !ok {
			i = len(qs)
			at[k] = i
			qs = append(qs, summary.Question{Proc: proc, Post: s.Post})
			pres = append(pres, nil)
		}
		pres[i] = append(pres[i], s.Pre)
	}
	for i := range qs {
		qs[i].Pre = logic.Disj(pres[i]...)
	}
	return qs
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
