package maymust

import (
	"fmt"
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
	st := &stepper{Meter: punch.Meter{Solver: ctx.DB.Solver()}, a: a, ctx: ctx, q: q}
	return st.run()
}

type stepper struct {
	punch.Meter // abstract work of this Step, and the solver it is charged on
	a           *Analysis
	ctx         *punch.Context
	q           *query.Query
	o           *obj
	children    []*query.Query
}

// debugf emits a trace line when debugging is enabled.
func (st *stepper) debugf(format string, args ...any) {
	if st.a.Debug == nil {
		return
	}
	fmt.Fprintf(st.a.Debug, "[Q%d %s] ", st.q.ID, st.q.Q.Proc)
	fmt.Fprintf(st.a.Debug, format, args...)
	fmt.Fprintln(st.a.Debug)
}

// finish assembles the result in the given state.
func (st *stepper) finish(state query.State, outcome query.Outcome) punch.Result {
	st.q.State = state
	st.q.Outcome = outcome
	st.q.Obj = st.o
	children := st.children
	if state == query.Done {
		children = nil
		// The refinement outlives the query: the next one of the same
		// procedure and postcondition starts from it.
		if st.o.g != nil {
			st.o.g.Shelve(st.ctx.Shelf)
			st.o.g = nil
		}
	}
	return punch.Result{Self: st.q, Children: children, Cost: st.Cost}
}

func (st *stepper) run() punch.Result {
	// Summary reuse: if SUMDB can already answer this question, the query
	// is Done without any analysis (the paper's first step of PUNCH).
	if _, verdict := st.ctx.DB.Answer(st.q.Q); verdict != 0 {
		st.Charge(4)
		if o, ok := st.q.Obj.(*obj); ok {
			st.o = o
		} else {
			st.o = newObj(st.ctx.Prog.Proc(st.q.Q.Proc), st.ctx.Prog.Globals)
		}
		if verdict > 0 {
			return st.finish(query.Done, query.Reachable)
		}
		return st.finish(query.Done, query.Unreachable)
	}

	if o, ok := st.q.Obj.(*obj); ok && o != nil {
		st.o = o
	} else {
		st.o = newObj(st.ctx.Prog.Proc(st.q.Q.Proc), st.ctx.Prog.Globals)
	}
	if !st.o.initialized {
		if done, res := st.initialize(); done {
			return res
		}
	}

	st.o.g.SweepPending(st.ctx.DB)

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
				st.debugf("DONE unreachable (no abstract path)")
				// No abstract error path at all: proof, for the whole
				// entry regions the search started from.
				st.ctx.DB.Add(summary.Summary{
					Kind: summary.NotMay,
					Proc: st.q.Q.Proc,
					Pre:  st.o.g.ProvedPre(&st.Meter, st.q.Q.Pre, st.o.globals),
					Post: st.q.Q.Post,
				})
				return st.finish(query.Done, query.Unreachable)
			}
			// Paths remain but all go through pending or stuck edges.
			// Before blocking, fan out: issue sub-queries for every
			// unresolved call edge on any abstract error path, so sibling
			// callees are analyzed in parallel instead of one at a time
			// (PUNCH "explores other paths in main", §1 — this is what
			// fills the MAP stage of Fig. 3 with ~fanout Ready queries).
			st.fanOut()
			st.debugf("BLOCKED (%d children)", len(st.children))
			return st.finish(query.Blocked, query.Pending)
		}
		st.handleFrontier(path)
	}
}

// initialize builds the initial may and must maps. Returns done=true when
// the query can be decided immediately (empty precondition).
func (st *stepper) initialize() (bool, punch.Result) {
	o, q := st.o, st.q
	pre := st.Sat(q.Q.Pre)
	if pre.Known && !pre.Sat {
		st.ctx.DB.Add(summary.Summary{Kind: summary.NotMay, Proc: q.Q.Proc, Pre: q.Q.Pre, Post: q.Q.Post})
		o.initialized = true
		return true, st.finish(query.Done, query.Unreachable)
	}
	// May-map Σ: exit is partitioned into {φ2, ¬φ2}; every other node
	// starts with the single partition ⊤ (§4) — or the refinement an
	// earlier query of the same procedure and φ2 found.
	o.g = regions.Take(st.ctx.Shelf, o.proc, q.Q.Post)
	// Must-map O: one symbolic element at entry — globals constrained by
	// φ1, locals unconstrained (fresh symbols).
	store := map[lang.Var]logic.Lin{}
	ren := map[lang.Var]lang.Var{}
	for _, v := range append(append([]lang.Var{}, o.globals...), o.locals...) {
		s := o.freshSym(q.ID, v)
		o.initSyms[v] = s
		store[v] = logic.LinVar(s)
		ren[v] = s
	}
	path := logic.Rename(q.Q.Pre, ren)
	st.o.addMust(o.proc.Entry, &mustElem{path: path, store: store}, st.a.MaxMustElems)
	o.initialized = true
	return false, punch.Result{}
}

// checkMustSuccess tests unexamined exit elements against φ2 and, on a
// witness, emits a must summary and finishes the query.
func (st *stepper) checkMustSuccess() (punch.Result, bool) {
	o, q := st.o, st.q
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
		st.emitMustSummary(e, r.Model)
		st.debugf("DONE reachable")
		return st.finish(query.Done, query.Reachable), true
	}
	return punch.Result{}, false
}

// emitMustSummary builds a frame-aware must summary from a witnessing exit
// element. The precondition pins the witness's entry point, but only on
// globals the procedure touches or that the witness path actually
// constrains — globals outside that set pass through the call freely, so
// omitting them keeps the summary applicable without pinning the caller's
// unrelated state. The postcondition is the under-projected image over the
// modified globals, with entry pins of constrained-but-unmodified globals
// carried over (their exit value equals their entry value).
func (st *stepper) emitMustSummary(e *mustElem, m map[lang.Var]int64) {
	o, q := st.o, st.q
	mr := st.ctx.ModRefOf(q.Q.Proc)
	fullConj := logic.Conj(e.path, logic.SubstMap(q.Q.Post, e.store))
	constrained := map[lang.Var]bool{}
	for _, v := range logic.FreeVars(fullConj) {
		constrained[v] = true
	}
	// Exit values of modified globals that still reference an entry symbol
	// tie the postcondition to the entry state; those entries must be
	// pinned too.
	for _, g := range o.globals {
		if mr.Mod[g] {
			for _, v := range e.store[g].Vars {
				constrained[v] = true
			}
		}
	}

	var prefs, framePosts, entryConstr []logic.Formula
	for _, g := range o.globals {
		if !constrained[o.initSyms[g]] {
			// This witness neither tests nor propagates the entry value of
			// g: any entry value admits the same path and image.
			continue
		}
		v := m[o.initSyms[g]]
		prefs = append(prefs, logic.Eq(logic.LinVar(g), logic.LinConst(v)))
		entryConstr = append(entryConstr, logic.Eq(logic.LinVar(o.initSyms[g]), logic.LinConst(v)))
		if !mr.Mod[g] {
			// Unmodified: exit value equals the pinned entry value.
			framePosts = append(framePosts, logic.Eq(logic.LinVar(g), logic.LinConst(v)))
		}
	}
	preF := logic.Conj(prefs...)

	// Exit image over the modified globals: ∃symbols. path ∧ φ2(σ) ∧
	// entry-point ∧ out_g = σ(g), under-projected onto the out variables.
	// Any under-approximation of the image is a sound must postcondition.
	conj := []logic.Formula{fullConj}
	conj = append(conj, entryConstr...)
	outRen := map[lang.Var]lang.Var{}
	for _, g := range o.globals {
		if !mr.Mod[g] {
			continue
		}
		out := lang.Var("$out_" + string(g))
		outRen[out] = g
		conj = append(conj, logic.Eq(logic.LinVar(out), e.store[g]))
	}
	full := logic.Conj(conj...)
	var elim []lang.Var
	for _, v := range logic.FreeVars(full) {
		if _, isOut := outRen[v]; !isOut {
			elim = append(elim, v)
		}
	}
	st.Charge(16)
	proj, _ := logic.Exists(full, elim, logic.Under)
	modPost := logic.Rename(st.Solver.Simplify(proj), outRen)
	if r := st.Sat(modPost); r.Model == nil {
		// Projection collapsed; fall back to the concrete exit point.
		var posts []logic.Formula
		for _, g := range o.globals {
			if mr.Mod[g] {
				posts = append(posts, logic.Eq(logic.LinVar(g), logic.LinConst(e.store[g].Eval(m))))
			}
		}
		modPost = logic.Conj(posts...)
	}
	postF := logic.Conj(append([]logic.Formula{modPost}, framePosts...)...)
	st.ctx.DB.Add(summary.Summary{Kind: summary.Must, Proc: q.Q.Proc, Pre: preF, Post: postF})
}

// errorPath searches the region graph for an abstract error path (see
// regions.Graph.FindPath); looking at an entry region costs one unit on
// top of its satisfiability check.
func (st *stepper) errorPath(avoid bool) []regions.EdgeID {
	st.Charge(int64(len(st.o.g.At(st.o.proc.Entry))))
	return st.o.g.FindPath(&st.Meter, st.q.Q.Pre, avoid)
}

// elemIn reports (with caching) whether elem's states intersect region r.
func (st *stepper) elemIn(e *mustElem, r *regions.Region) bool {
	if v, ok := e.reach[r.ID]; ok {
		return v > 0
	}
	s := st.Sat(logic.Conj(e.path, logic.SubstMap(r.F, e.store)))
	if s.Known && !s.Sat {
		e.reach[r.ID] = -1
		return false
	}
	e.reach[r.ID] = 1
	return true
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
	fwd := o.g.Reachable(&st.Meter, st.q.Q.Pre, false)
	bwd := o.g.Reachable(&st.Meter, st.q.Q.Pre, true)
	for ei, e := range o.proc.Edges {
		c, isCall := e.Stmt.(lang.Call)
		if !isCall {
			continue
		}
		for _, from := range o.g.At(e.From) {
			if !fwd[from.ID] {
				continue
			}
			for _, ae := range o.g.Out(ei, from) {
				to := o.g.Step(ae).To
				if !bwd[to.ID] || o.g.Blocked(ae) {
					continue
				}
				postG := st.projectGlobals(to.F)
				question := summary.Question{Proc: c.Proc, Pre: st.projectGlobals(from.F), Post: postG}
				if _, verdict := st.ctx.DB.Answer(question); verdict != 0 {
					continue
				}
				child := st.ctx.Alloc.New(st.q.ID, question)
				st.children = append(st.children, child)
				o.g.SetPending(ae, &question)
				st.debugf("fan-out child Q%d for %s: %v", child.ID, c.Proc, question)
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
		if st.mustReached(st.o.g.Step(path[i]).From) {
			fi = i
			break
		}
	}
	stp := st.o.g.Step(path[fi])
	e := st.o.proc.Edges[stp.CFG]
	st.debugf("frontier at path[%d/%d]: edge n%d->n%d (%v), from R%d{%v} to R%d{%v}", fi, len(path)-1, e.From, e.To, e.Stmt, stp.From.ID, stp.From.F, stp.To.ID, stp.To.F)
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
		o.g.Kill(stp.ID)
		return
	}
	sat2 := st.Sat(f2)
	if sat2.Known && !sat2.Sat {
		// ρ ⊆ wp yet no element crossed: the preimage was inexact (havoc
		// over non-unit coefficients). No sound elimination is available.
		if o.g.Attempt(stp.ID) >= st.a.MaxChildAttempts {
			o.g.SetStuck(stp.ID)
		}
		return
	}
	// The parts outside wp provably cannot cross this edge into ρ'.
	_, outs := o.g.PartitionOn(&st.Meter, stp.From, wp)
	o.g.Eliminate(stp.CFG, outs, stp.To)
	st.debugf("split R%d on wp=%v (%d outside parts)", stp.From.ID, wp, len(outs))
}

// extendElem symbolically executes s from el constrained to the frontier's
// source region, landing in its destination region; nil when infeasible.
func (st *stepper) extendElem(el *mustElem, stp regions.Step, s lang.Stmt) *mustElem {
	base := logic.Conj(el.path, logic.SubstMap(stp.From.F, el.store))
	store := el.store
	switch s := s.(type) {
	case lang.Assign:
		store = cloneStore(store)
		rhs := logic.FromInt(s.Rhs)
		val := logic.LinConst(rhs.K)
		for i, v := range rhs.Vars {
			val = val.Add(el.store[v].Scale(rhs.Coefs[i]))
		}
		store[s.Lhs] = val
	case lang.Assume:
		base = logic.Conj(base, logic.SubstMap(logic.FromBool(s.Cond), el.store))
	case lang.Havoc:
		store = cloneStore(store)
		store[s.V] = logic.LinVar(st.o.freshSym(st.q.ID, s.V))
	case lang.Skip:
	default:
		panic("maymust: unexpected statement kind at simple frontier")
	}
	landed := logic.Conj(base, logic.SubstMap(stp.To.F, store))
	r := st.Sat(landed)
	if !(r.Known && r.Sat) {
		return nil
	}
	return &mustElem{path: landed, store: store}
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
	o, q := st.o, st.q
	var elems []*mustElem
	for _, el := range o.musts[stp.From.Node] {
		if st.elemIn(el, stp.From) {
			elems = append(elems, el)
		}
	}
	postG := st.projectGlobals(stp.To.F)

	// Case 0 (frame refinement, no child needed): a call can only change
	// the globals in Mod(callee), so any caller state landing in ρ' must
	// already satisfy ρ' with those globals abstracted away. Splitting ρ
	// on that weakest frame precondition propagates caller-local and
	// untouched-global constraints backwards across the call for free.
	calleeMR := st.ctx.ModRefOf(callee)
	var modG []lang.Var
	for _, g := range o.globals {
		if calleeMR.Mod[g] {
			modG = append(modG, g)
		}
	}
	st.Charge(6)
	wpFrame, _ := logic.Exists(stp.To.F, modG, logic.Over)
	f1 := logic.Conj(stp.From.F, wpFrame)
	f2 := logic.Conj(stp.From.F, logic.Not(wpFrame))
	if r1 := st.Sat(f1); r1.Known && !r1.Sat {
		st.debugf("frame: eliminated call edge %v (no state can land in R%d)", stp, stp.To.ID)
		o.g.Kill(stp.ID)
		return
	}
	if r2 := st.Sat(f2); r2.Known && r2.Sat {
		_, outs := o.g.PartitionOn(&st.Meter, stp.From, wpFrame)
		o.g.Eliminate(stp.CFG, outs, stp.To)
		st.debugf("frame: split R%d on %v (%d outside parts)", stp.From.ID, wpFrame, len(outs))
		return
	}

	// Case 1: must summaries with a single-point precondition extend O.
	for _, s := range st.ctx.DB.ForProc(callee) {
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
			// Cross the call: globals the callee may modify become fresh
			// symbols constrained by the summary postcondition; all other
			// variables pass through the frame untouched.
			store := cloneStore(el.store)
			ren := map[lang.Var]lang.Var{}
			for _, g := range o.globals {
				if !calleeMR.Mod[g] {
					continue
				}
				sym := o.freshSym(q.ID, g)
				store[g] = logic.LinVar(sym)
				ren[g] = sym
			}
			postC := logic.SubstMap(logic.Rename(s.Post, ren), el.store)
			after := logic.Conj(cond, postC,
				logic.SubstMap(stp.To.F, store))
			ra := st.Sat(after)
			if ra.Known && ra.Sat {
				st.debugf("case1: extended across call via %v", s)
				o.addMust(stp.To.Node, &mustElem{path: after, store: store}, st.a.MaxMustElems)
				return
			}
		}
	}

	// Case 2: a not-may summary covering ρ'^G eliminates the edge from the
	// part of ρ whose globals lie in the summary precondition.
	for _, s := range st.ctx.DB.ForProc(callee) {
		if s.Kind != summary.NotMay {
			continue
		}
		if !st.Implies(postG, s.Post) {
			continue
		}
		st.Charge(8)
		f1 := logic.Conj(stp.From.F, s.Pre)
		r1 := st.Sat(f1)
		if r1.Known && !r1.Sat {
			continue // summary covers none of ρ
		}
		f2 := logic.Conj(stp.From.F, logic.Not(s.Pre))
		r2 := st.Sat(f2)
		if r2.Known && !r2.Sat {
			// All of ρ is covered: eliminate the edge outright.
			st.debugf("case2: eliminated call edge %v outright via %v", stp, s)
			o.g.Kill(stp.ID)
			return
		}
		ins, _ := o.g.PartitionOn(&st.Meter, stp.From, s.Pre)
		o.g.Eliminate(stp.CFG, ins, stp.To)
		st.debugf("case2: split R%d on %v and eliminated call edge from %d covered parts", stp.From.ID, s.Pre, len(ins))
		return
	}

	// Case 3: issue a child sub-query.
	attempts := o.g.Attempt(stp.ID)
	if attempts > st.a.MaxChildAttempts {
		st.debugf("call edge %v STUCK after %d attempts", stp, attempts)
		o.g.SetStuck(stp.ID)
		return
	}
	pre, ok := st.childPre(elems, stp.From, callee, postG)
	if !ok {
		st.debugf("call edge %v: no usable child precondition", stp)
		o.g.SetStuck(stp.ID)
		return
	}
	if _, yes := st.ctx.DB.AnswerYes(summary.Question{Proc: callee, Pre: pre, Post: postG}); yes {
		// The over-approximate question is already answered "yes", yet
		// case 1 could not use the witness (its entry point is not
		// realizable by the must side). Ask about a concrete realizable
		// entry point instead.
		if p, ok := st.pointEntry(elems, stp.From); ok {
			pre = p
		}
	}
	question := summary.Question{Proc: callee, Pre: pre, Post: postG}
	child := st.ctx.Alloc.New(q.ID, question)
	st.debugf("child Q%d for %s: pre=%v post=%v (attempt %d)", child.ID, callee, pre, postG, attempts)
	st.children = append(st.children, child)
	o.g.SetPending(stp.ID, &question)
}

// childPre computes the child query precondition (O ∧ ρ)^G as a small
// conjunctive over-approximation: each reaching element is over-projected
// onto the globals and the results are merged into their conjunctive hull
// (the atoms common to every disjunct). A hull keeps downstream summary
// checks tractable and never degenerates into an uninformative ⊤ the way a
// blown-up exact DNF projection would. The bool result is false when no
// usable precondition could be built.
func (st *stepper) childPre(elems []*mustElem, from *regions.Region, callee string, postG logic.Formula) (logic.Formula, bool) {
	o := st.o
	var projs []logic.Formula
	for _, el := range elems {
		conj := []logic.Formula{el.path, logic.SubstMap(from.F, el.store)}
		for _, g := range o.globals {
			conj = append(conj, logic.Eq(logic.LinVar(g), el.store[g]))
		}
		full := logic.Conj(conj...)
		var elim []lang.Var
		for _, v := range logic.FreeVars(full) {
			if !isGlobal(o.globals, v) {
				elim = append(elim, v)
			}
		}
		st.Charge(6)
		proj, _ := logic.Exists(full, elim, logic.Over)
		projs = append(projs, proj)
	}
	out := st.filterRelevant(conjunctiveHull(projs), callee, postG)
	if logic.Size(out) > regions.MaxPreSize {
		st.Charge(8)
		out = st.Solver.Simplify(out)
	}
	return out, true
}

// filterRelevant drops hull conjuncts over globals that neither the callee
// touches nor the question postcondition mentions. Dropping conjuncts only
// weakens a child question (sound), and it stops the caller's unrelated
// state from being baked into the callee's summaries.
func (st *stepper) filterRelevant(f logic.Formula, callee string, postG logic.Formula) logic.Formula {
	mr := st.ctx.ModRefOf(callee)
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
		if r.Model == nil {
			continue
		}
		var fs []logic.Formula
		for _, g := range st.o.globals {
			fs = append(fs, logic.Eq(logic.LinVar(g), logic.LinConst(el.store[g].Eval(r.Model))))
		}
		return logic.Conj(fs...), true
	}
	return nil, false
}

// projectGlobals over-projects a region formula onto the globals.
// Oversized results are weakened to their conjunctive hull — sound, since
// a weaker question postcondition makes any "no" answer strictly stronger
// and "yes" answers are re-validated against the landing region anyway.
func (st *stepper) projectGlobals(f logic.Formula) logic.Formula {
	var elim []lang.Var
	for _, v := range logic.FreeVars(f) {
		if !isGlobal(st.o.globals, v) {
			elim = append(elim, v)
		}
	}
	if len(elim) > 0 {
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

// isPointPre reports (with caching) whether a must summary's precondition
// denotes exactly one state of the globals it mentions (the frame globals
// it omits pass through freely). This is the condition under which
// satisfiability-based application at call sites is sound.
func (st *stepper) isPointPre(s summary.Summary) bool {
	// The verdict depends only on the precondition, so the memo keys on
	// its interned identity — summaries sharing a Pre share the check.
	id := logic.KeyID(s.Pre)
	if v := st.o.pointPre[id]; v != 0 {
		return v > 0
	}
	ok := false
	vars := logic.FreeVars(s.Pre)
	if len(vars) == 0 {
		// ⊤ denotes every state; not a point (unless there are no
		// mentioned variables at all, in which case it is trivially one).
		ok = true
	} else if m := st.Solver.Model(s.Pre); m != nil {
		st.Charge(4)
		var fs []logic.Formula
		for _, g := range vars {
			fs = append(fs, logic.Eq(logic.LinVar(g), logic.LinConst(m[g])))
		}
		ok = st.Implies(s.Pre, logic.Conj(fs...))
	}
	st.o.pointPre[id] = -1
	if ok {
		st.o.pointPre[id] = 1
	}
	return ok
}

func isGlobal(globals []lang.Var, v lang.Var) bool {
	for _, g := range globals {
		if g == v {
			return true
		}
	}
	return false
}
