package maymust

import (
	"io"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
	"repro/internal/summary"
)

// Analysis is the may-must PUNCH instantiation. The zero value is not
// usable; call New.
type Analysis struct {
	// Budget is the abstract work budget per Step invocation; when
	// exhausted the query is preempted and returned Ready (§3.2 fairness).
	Budget int64
	// MaxMustElems caps the must-map size per control location.
	MaxMustElems int
	// MaxChildAttempts bounds re-issued children per call-edge frontier
	// before the edge is declared stuck.
	MaxChildAttempts int
	// Debug, when non-nil, receives a trace of analysis decisions.
	Debug io.Writer
}

// New returns a may-must analysis with default limits.
func New() *Analysis {
	return &Analysis{Budget: 900, MaxMustElems: 24, MaxChildAttempts: 6}
}

// Name implements punch.Punch.
func (a *Analysis) Name() string { return "may-must" }

// Step implements punch.Punch: one budgeted slice of DASH-style analysis
// on query q.
func (a *Analysis) Step(ctx *punch.Context, q *query.Query) punch.Result {
	st := &stepper{Stepper: punch.NewStepper(ctx, q, "", a.Debug), a: a}
	return st.run()
}

type stepper struct {
	punch.Stepper
	a *Analysis
	o *obj
}

func (st *stepper) finish(state query.State, outcome query.Outcome) punch.Result {
	return st.Finish(state, outcome, st.o)
}

func (st *stepper) run() punch.Result {
	if o, ok := st.Q.Obj.(*obj); ok && o != nil {
		st.o = o
	} else {
		st.o = newObj(st.Ctx.Prog.Proc(st.Q.Q.Proc), st.Ctx.Prog.Globals, st.Q.ID)
	}
	if outcome, ok := st.Answered(); ok {
		return st.finish(query.Done, outcome)
	}
	if !st.o.initialized {
		if st.initialize() {
			return st.finish(query.Done, query.Unreachable)
		}
	}

	st.o.G.SweepPending(st.Ctx.DB)

	for {
		if st.Cost >= st.a.Budget {
			return st.finish(query.Ready, query.Pending)
		}
		if res, done := st.checkMustSuccess(); done {
			return res
		}
		path := st.errorPath(true)
		if path == nil {
			if st.errorPath(false) == nil {
				st.Debugf("DONE unreachable (no abstract path)")
				// No abstract error path at all: proof, for the whole
				// entry regions the search started from.
				st.NotMay(st.o.G.ProvedPre(&st.Meter, st.Q.Q.Pre, st.o.globals))
				return st.finish(query.Done, query.Unreachable)
			}
			// Paths remain but all go through pending or stuck edges.
			// Before blocking, fan out: issue sub-queries for every
			// unresolved call edge on any abstract error path, so sibling
			// callees are analyzed in parallel instead of one at a time
			// (PUNCH "explores other paths in main", §1 — this is what
			// fills the MAP stage of Fig. 3 with ~fanout Ready queries).
			st.fanOut()
			st.Debugf("BLOCKED (%d children)", len(st.Children))
			return st.finish(query.Blocked, query.Pending)
		}
		st.handleFrontier(path)
	}
}

// initialize builds the initial may and must maps. It reports true when
// the precondition is empty, which decides the query at once.
func (st *stepper) initialize() bool {
	o, q := st.o, st.Q
	o.initialized = true
	if st.EmptyPre() {
		return true
	}
	// May-map Σ: exit is partitioned into {φ2, ¬φ2}; every other node
	// starts with the single partition ⊤ (§4) — or the refinement an
	// earlier query of the same procedure and φ2 found.
	o.G = regions.Take(st.Ctx.Shelf, o.proc, q.Q.Post)
	// Must-map O: one symbolic element at entry — globals constrained by
	// φ1, locals unconstrained (fresh symbols).
	path, store, entry := punch.Entry(q.Q.Pre, &o.syms, o.globals, o.locals)
	o.entry = entry
	o.addMust(o.proc.Entry, &mustElem{path: path, store: store}, st.a.MaxMustElems)
	return false
}

// checkMustSuccess tests unexamined exit elements against φ2 and, on a
// witness, emits a must summary and finishes the query.
func (st *stepper) checkMustSuccess() (punch.Result, bool) {
	o, q := st.o, st.Q
	for _, e := range o.musts[o.proc.Exit] {
		if e.exitChecked {
			continue
		}
		e.exitChecked = true
		hit := logic.Conj(e.path, logic.SubstMap(q.Q.Post, e.store))
		r := st.Sat(hit)
		if r.Model == nil {
			continue
		}
		st.Ctx.DB.Add(st.MustSummary(punch.Witness{
			Proc: q.Q.Proc, Mod: st.Ctx.ModRefOf(q.Q.Proc), Globals: o.globals,
			Entry: o.entry, Store: e.store, Hit: hit, Model: r.Model,
		}, true))
		st.Debugf("DONE reachable")
		return st.finish(query.Done, query.Reachable), true
	}
	return punch.Result{}, false
}

// errorPath searches the region graph for an abstract error path (see
// regions.Graph.FindPath); looking at an entry region costs one unit on
// top of its satisfiability check.
func (st *stepper) errorPath(avoid bool) []regions.EdgeID {
	st.Charge(int64(len(st.o.G.At(st.o.proc.Entry))))
	return st.o.G.FindPath(&st.Meter, st.Q.Q.Pre, avoid)
}

// elemIn reports (with caching) whether elem's states intersect region r:
// false only when e.path ∧ r.F[e.store] is proven unsatisfiable.
func (st *stepper) elemIn(e *mustElem, r *regions.Region) bool {
	for _, m := range e.reach {
		if m.region == r.ID {
			return m.in
		}
	}
	in := st.Meets(e.path, r.F, e.store)
	e.reach = append(e.reach, membership{r.ID, in})
	return in
}

// mustReached reports whether any must element at r's node intersects r.
func (st *stepper) mustReached(r *regions.Region) bool {
	for _, e := range st.o.musts[r.Node] {
		if st.elemIn(e, r) {
			return true
		}
	}
	return false
}

// fanOut issues a sub-query for every call edge that lies on some
// abstract error path (source region forward-reachable from the entry,
// destination region co-reachable with the target) and has neither an
// applicable summary nor an outstanding child. Preconditions are the
// source region's global projection — weaker than the frontier's O-based
// ones, but exactly the context-insensitive questions (the Q_foo, Q_bar,
// Q_baz of Fig. 2) that let sibling callees be analyzed in parallel while
// the must frontier is still working its way forward.
func (st *stepper) fanOut() {
	o := st.o
	fwd := o.G.Reachable(&st.Meter, st.Q.Q.Pre, false)
	bwd := o.G.Reachable(&st.Meter, st.Q.Q.Pre, true)
	var out []regions.EdgeID
	for ei, e := range o.proc.Edges {
		c, isCall := e.Stmt.(lang.Call)
		if !isCall {
			continue
		}
		for _, from := range o.G.At(e.From) {
			if !fwd[from.ID] {
				continue
			}
			out = o.G.Out(ei, from, out[:0])
			for _, ae := range out {
				to := o.G.Step(ae).To
				if !bwd[to.ID] || o.G.Blocked(ae) {
					continue
				}
				postG := st.projectGlobals(to.F)
				question := summary.Question{Proc: c.Proc, Pre: st.projectGlobals(from.F), Post: postG}
				if _, verdict := st.Ctx.DB.Answer(question); verdict != 0 {
					continue
				}
				child := st.Ask(question)
				o.G.SetPending(ae, &question)
				st.Debugf("fan-out child Q%d for %s: %v", child.ID, c.Proc, question)
			}
		}
	}
}

// handleFrontier locates the frontier on the path — the last abstract edge
// whose source region is must-reached — and advances the analysis across
// it: test extension or region refinement for simple edges, the three
// summary cases of §4 for call edges.
func (st *stepper) handleFrontier(path []regions.EdgeID) {
	// The entry region of the path is must-reached by the initial element,
	// so a frontier always exists.
	fi := 0
	for i := len(path) - 1; i >= 0; i-- {
		if st.mustReached(st.o.G.Step(path[i]).From) {
			fi = i
			break
		}
	}
	stp := st.o.G.Step(path[fi])
	e := st.o.proc.Edges[stp.CFG]
	st.Debugf("frontier at path[%d/%d]: edge n%d->n%d (%v), from R%d{%v} to R%d{%v}", fi, len(path)-1, e.From, e.To, e.Stmt, stp.From.ID, stp.From.F, stp.To.ID, stp.To.F)
	if c, isCall := e.Stmt.(lang.Call); isCall {
		st.handleCallFrontier(stp, c.Proc)
		return
	}
	st.handleSimpleFrontier(stp, e.Stmt)
}

// handleSimpleFrontier tries to extend a must element across the frontier
// edge; if no element can cross, the source region is split on the
// preimage of the destination region, eliminating the abstract edge from
// the half that provably cannot cross (§4, may-analysis refinement).
func (st *stepper) handleSimpleFrontier(stp regions.Step, s lang.Stmt) {
	o := st.o
	for _, el := range o.musts[stp.From.Node] {
		if !st.elemIn(el, stp.From) {
			continue
		}
		if ne := st.extendElem(el, stp, s); ne != nil {
			o.addMust(stp.To.Node, ne, st.a.MaxMustElems)
			return
		}
	}
	// Refine: split ρ on wp = pre(s, ρ').
	st.Charge(2)
	wp := logic.Pre(s, stp.To.F, logic.Over)
	st.Charge(8)
	f1 := logic.Conj(stp.From.F, wp)
	f2 := logic.Conj(stp.From.F, logic.Not(wp))
	sat1 := st.Sat(f1)
	if sat1.Known && !sat1.Sat {
		// ρ ∩ pre(s, ρ') = ∅: the whole edge is infeasible.
		o.G.Kill(stp.ID)
		return
	}
	sat2 := st.Sat(f2)
	if sat2.Known && !sat2.Sat {
		// ρ ⊆ wp yet no element crossed: the preimage was inexact (havoc
		// over non-unit coefficients). No sound elimination is available.
		if o.G.Attempt(stp.ID) >= st.a.MaxChildAttempts {
			o.G.SetStuck(stp.ID)
		}
		return
	}
	// The parts outside wp provably cannot cross this edge into ρ'.
	_, outs := o.G.PartitionOn(&st.Meter, stp.From, wp)
	o.G.Eliminate(stp.CFG, outs, stp.To)
	st.Debugf("split R%d on wp=%v (%d outside parts)", stp.From.ID, wp, len(outs))
}

// extendElem symbolically executes s from el constrained to the frontier's
// source region, landing in its destination region; nil when infeasible.
func (st *stepper) extendElem(el *mustElem, stp regions.Step, s lang.Stmt) *mustElem {
	base := logic.Conj(el.path, logic.SubstMap(stp.From.F, el.store))
	base, bind := punch.Image(base, el.store, s, &st.o.syms)
	landed := logic.Conj(base, bind.SubstMap(stp.To.F, el.store))
	r := st.Sat(landed)
	if !(r.Known && r.Sat) {
		return nil
	}
	return &mustElem{path: landed, store: bind.Apply(el.store)}
}

// handleCallFrontier implements the three cases of §4 for an abstract
// call edge ρ → ρ' labelled `call P`:
//  1. an applicable must summary of P extends the must-map across the
//     call;
//  2. an applicable not-may summary of P splits ρ and eliminates the edge
//     from the covered half;
//  3. otherwise a child sub-query ((O ∧ ρ)^G ⇒?_P ρ'^G) is issued and the
//     edge waits for its answer.
func (st *stepper) handleCallFrontier(stp regions.Step, callee string) {
	o := st.o
	var elems []*mustElem
	for _, el := range o.musts[stp.From.Node] {
		if st.elemIn(el, stp.From) {
			elems = append(elems, el)
		}
	}
	postG := st.projectGlobals(stp.To.F)

	// Case 0 (frame refinement, no child needed): a call can only change
	// the globals in Mod(callee), so splitting ρ on ρ' with those globals
	// abstracted away propagates caller-local and untouched-global
	// constraints backwards across the call for free.
	calleeMR := st.Ctx.ModRefOf(callee)
	if o.G.FrameSplit(&st.Meter, stp, o.globals, calleeMR) {
		st.Debugf("frame: refined call edge %v", stp)
		return
	}

	// Case 1: must summaries with a single-point precondition extend O.
	for _, s := range st.Ctx.DB.ForProc(callee) {
		if s.Kind != summary.Must || !st.isPointPre(s) {
			continue
		}
		for _, el := range elems {
			cond := logic.Conj(
				el.path,
				logic.SubstMap(stp.From.F, el.store),
				logic.SubstMap(s.Pre, el.store),
			)
			r := st.Sat(cond)
			if !(r.Known && r.Sat) {
				continue
			}
			cross, post := punch.Cross(el.store, s.Post, o.globals, calleeMR, &o.syms)
			after := logic.Conj(cond, post, cross.SubstMap(stp.To.F, el.store))
			ra := st.Sat(after)
			if ra.Known && ra.Sat {
				st.Debugf("case1: extended across call via %v", s)
				o.addMust(stp.To.Node, &mustElem{path: after, store: cross.Apply(el.store)}, st.a.MaxMustElems)
				return
			}
		}
	}

	// Case 2: a not-may summary covering ρ'^G eliminates the edge from the
	// part of ρ whose globals lie in the summary precondition.
	refined, tested := o.G.SummarySplit(&st.Meter, st.Ctx.DB, callee, postG, stp)
	st.Charge(8 * tested)
	if refined {
		st.Debugf("case2: refined call edge %v", stp)
		return
	}

	// Case 3: issue a child sub-query.
	attempts := o.G.Attempt(stp.ID)
	if attempts > st.a.MaxChildAttempts {
		st.Debugf("call edge %v STUCK after %d attempts", stp, attempts)
		o.G.SetStuck(stp.ID)
		return
	}
	pre := st.childPre(elems, stp.From, callee, postG)
	if _, yes := st.Ctx.DB.AnswerYes(summary.Question{Proc: callee, Pre: pre, Post: postG}); yes {
		// The over-approximate question is already answered "yes", yet
		// case 1 could not use the witness (its entry point is not
		// realizable by the must side). Ask about a concrete realizable
		// entry point instead.
		if p, ok := st.pointEntry(elems, stp.From); ok {
			pre = p
		}
	}
	question := summary.Question{Proc: callee, Pre: pre, Post: postG}
	child := st.Ask(question)
	st.Debugf("child Q%d for %s: pre=%v post=%v (attempt %d)", child.ID, callee, pre, postG, attempts)
	o.G.SetPending(stp.ID, &question)
}

// childPre computes the child query precondition (O ∧ ρ)^G as a small
// conjunctive over-approximation: each reaching element is over-projected
// onto the globals and the results are merged into their conjunctive hull
// (the atoms common to every disjunct). A hull keeps downstream summary
// checks tractable and never degenerates into an uninformative ⊤ the way a
// blown-up exact DNF projection would.
func (st *stepper) childPre(elems []*mustElem, from *regions.Region, callee string, postG logic.Formula) logic.Formula {
	var projs []logic.Formula
	for _, el := range elems {
		projs = append(projs, st.Project(el.path, el.store, from.F, st.o.globals))
	}
	out := st.filterRelevant(conjunctiveHull(projs), callee, postG)
	if logic.Size(out) > regions.MaxPreSize {
		st.Charge(8)
		out = st.Solver.Simplify(out)
	}
	return out
}

// filterRelevant drops hull conjuncts over globals that neither the callee
// touches nor the question postcondition mentions. Dropping conjuncts only
// weakens a child question (sound), and it stops the caller's unrelated
// state from being baked into the callee's summaries.
func (st *stepper) filterRelevant(f logic.Formula, callee string, postG logic.Formula) logic.Formula {
	mr := st.Ctx.ModRefOf(callee)
	relevant := map[lang.Var]bool{}
	for _, v := range logic.FreeVars(postG) {
		relevant[v] = true
	}
	var kept []logic.Formula
	for _, c := range conjunctsOf(f) {
		ok := true
		for _, v := range logic.FreeVars(c) {
			if !mr.Touched(v) && !relevant[v] {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return logic.Conj(kept...)
}

// conjunctiveHull over-approximates the union of the given formulas by the
// conjunction of the atoms they all share (disjuncts contribute their own
// conjunct sets). An empty input yields ⊤.
func conjunctiveHull(fs []logic.Formula) logic.Formula {
	var sets [][]logic.Formula
	for _, f := range fs {
		switch f := f.(type) {
		case logic.Or:
			for _, d := range f.Fs {
				sets = append(sets, conjunctsOf(d))
			}
		default:
			sets = append(sets, conjunctsOf(f))
		}
	}
	if len(sets) == 0 {
		return logic.True
	}
	common := map[logic.ID]bool{}
	for _, g := range sets[0] {
		common[logic.KeyID(g)] = true
	}
	for _, set := range sets[1:] {
		have := map[logic.ID]bool{}
		for _, g := range set {
			have[logic.KeyID(g)] = true
		}
		for id := range common {
			if !have[id] {
				delete(common, id)
			}
		}
	}
	// Preserve the first set's order for determinism.
	var out []logic.Formula
	for _, g := range sets[0] {
		if id := logic.KeyID(g); common[id] {
			out = append(out, g)
			delete(common, id)
		}
	}
	return logic.Conj(out...)
}

func conjunctsOf(f logic.Formula) []logic.Formula {
	if a, ok := f.(logic.And); ok {
		return a.Fs
	}
	if _, ok := f.(logic.Bool); ok {
		return nil
	}
	return []logic.Formula{f}
}

// pointEntry samples a concrete global state realizable by some element
// within the region.
func (st *stepper) pointEntry(elems []*mustElem, from *regions.Region) (logic.Formula, bool) {
	for _, el := range elems {
		r := st.Sat(logic.Conj(el.path, logic.SubstMap(from.F, el.store)))
		if r.Model != nil {
			return punch.PointEntry(st.o.globals, el.store, r.Model), true
		}
	}
	return nil, false
}

// projectGlobals over-projects a region formula onto the globals.
// Oversized results are weakened to their conjunctive hull — sound, since
// a weaker question postcondition makes any "no" answer strictly stronger
// and "yes" answers are re-validated against the landing region anyway.
func (st *stepper) projectGlobals(f logic.Formula) logic.Formula {
	if elim := punch.NonGlobals(f, st.o.globals); len(elim) > 0 {
		st.Charge(6)
		f, _ = logic.Exists(f, elim, logic.Over)
	}
	if logic.Size(f) > regions.MaxPreSize {
		st.Charge(8)
		f = st.Solver.Simplify(f)
		if logic.Size(f) > regions.MaxPreSize {
			f = conjunctiveHull([]logic.Formula{f})
		}
	}
	return f
}

// isPointPre is punch.Meter.IsPoint on a must summary's precondition,
// memoised on its interned id for the query: summaries sharing a Pre
// share the check. The entailment is charged here.
func (st *stepper) isPointPre(s summary.Summary) bool {
	id := logic.KeyID(s.Pre)
	if v := st.o.pointPre[id]; v != 0 {
		return v > 0
	}
	ok, entailed := st.IsPoint(s.Pre)
	if entailed {
		st.Charge(4)
	}
	st.o.pointPre[id] = -1
	if ok {
		st.o.pointPre[id] = 1
	}
	return ok
}
