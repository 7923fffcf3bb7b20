// Package may instantiates PUNCH with a may-analysis in the style of
// SLAM/BLAST (§4 of the paper): the state space of each procedure is
// partitioned into regions (the may-map Σ); abstract error paths are
// refuted by splitting regions on preimages along the path and eliminating
// abstract edges (the set Ē), and proofs are not-may summaries. An
// abstract path that survives refinement is confirmed by exact forward
// symbolic execution, which yields a must summary — the
// counterexample-guided loop of a software model checker.
//
// Call edges consult not-may summaries to eliminate, spawn child
// sub-queries when no summary applies, and use frame (mod/ref) reasoning
// to propagate caller-state constraints across calls without a child.
package may

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
	"repro/internal/summary"
)

// Analysis is the may-analysis PUNCH instantiation.
type Analysis struct {
	// Budget is the abstract work budget per Step invocation.
	Budget int64
	// MaxAttempts bounds child re-issues per call edge before it is
	// declared stuck.
	MaxAttempts int
	// LoopBound caps edge repetitions during forward confirmation.
	LoopBound int
	// Debug, when non-nil, receives a trace of analysis decisions.
	Debug io.Writer
}

// New returns a may analysis with default limits.
func New() *Analysis {
	return &Analysis{Budget: 900, MaxAttempts: 8, LoopBound: 6}
}

// Name implements punch.Punch.
func (a *Analysis) Name() string { return "may (CEGAR-style)" }

type obj struct {
	proc        *cfg.Proc
	globals     []lang.Var
	g           *regions.Graph // the region graph, built by initialize
	symCount    int
	initialized bool
}

// Step implements punch.Punch.
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

func (st *stepper) debugf(format string, args ...any) {
	if st.a.Debug == nil {
		return
	}
	fmt.Fprintf(st.a.Debug, "[may Q%d %s] ", st.q.ID, st.q.Q.Proc)
	fmt.Fprintf(st.a.Debug, format, args...)
	fmt.Fprintln(st.a.Debug)
}

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
	if _, verdict := st.ctx.DB.Answer(st.q.Q); verdict != 0 {
		st.Charge(4)
		st.ensureObj()
		if verdict > 0 {
			return st.finish(query.Done, query.Reachable)
		}
		return st.finish(query.Done, query.Unreachable)
	}
	st.ensureObj()
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
		path := st.o.g.FindPath(&st.Meter, st.q.Q.Pre, true)
		if path == nil {
			if st.o.g.FindPath(&st.Meter, st.q.Q.Pre, false) == nil {
				pre := st.o.g.ProvedPre(&st.Meter, st.q.Q.Pre, st.o.globals)
				st.ctx.DB.Add(summary.Summary{Kind: summary.NotMay, Proc: st.q.Q.Proc, Pre: pre, Post: st.q.Q.Post})
				st.debugf("DONE unreachable (no abstract path)")
				return st.finish(query.Done, query.Unreachable)
			}
			st.debugf("BLOCKED")
			return st.finish(query.Blocked, query.Pending)
		}
		if res, done := st.refuteOrConfirm(path); done {
			return res
		}
	}
}

func (st *stepper) ensureObj() {
	if st.o != nil {
		return
	}
	if o, ok := st.q.Obj.(*obj); ok && o != nil {
		st.o = o
		return
	}
	st.o = &obj{proc: st.ctx.Prog.Proc(st.q.Q.Proc), globals: st.ctx.Prog.Globals}
}

func (st *stepper) initialize() (bool, punch.Result) {
	o, q := st.o, st.q
	pre := st.Sat(q.Q.Pre)
	if pre.Known && !pre.Sat {
		st.ctx.DB.Add(summary.Summary{Kind: summary.NotMay, Proc: q.Q.Proc, Pre: q.Q.Pre, Post: q.Q.Post})
		o.initialized = true
		return true, st.finish(query.Done, query.Unreachable)
	}
	o.g = regions.Take(st.ctx.Shelf, o.proc, q.Q.Post)
	o.initialized = true
	return false, punch.Result{}
}

// refuteOrConfirm walks the abstract path backwards splitting regions on
// suffix preimages; if the path survives to the entry it is confirmed by
// exact forward symbolic execution. done=true ends the query.
func (st *stepper) refuteOrConfirm(path []regions.EdgeID) (punch.Result, bool) {
	o, q := st.o, st.q
	// cur is the refined suffix-reaching set at the current position,
	// represented by a live region.
	cur := o.g.Step(path[len(path)-1]).To
	for i := len(path) - 1; i >= 0; i-- {
		stp := o.g.Step(path[i])
		// The path may reference regions retired by earlier splits in this
		// very walk; restart the search in that case.
		if !stp.From.Live() || !cur.Live() {
			return punch.Result{}, false
		}
		e := o.proc.Edges[stp.CFG]
		if c, isCall := e.Stmt.(lang.Call); isCall {
			next, progressed := st.backwardCall(path[:i], stp, cur, c.Proc)
			if progressed {
				return punch.Result{}, false
			}
			if next == nil {
				return punch.Result{}, false
			}
			cur = next
			continue
		}
		st.Charge(2)
		wp := logic.Pre(e.Stmt, cur.F, logic.Over)
		f1 := logic.Conj(stp.From.F, wp)
		r1 := st.Sat(f1)
		if r1.Known && !r1.Sat {
			// No state in the source region can enter the suffix.
			o.g.Kill(o.g.Edge(stp.CFG, stp.From, cur))
			st.debugf("refuted path at step %d (edge n%d->n%d)", i, e.From, e.To)
			return punch.Result{}, false
		}
		f2 := logic.Conj(stp.From.F, logic.Not(wp))
		r2 := st.Sat(f2)
		if r2.Known && !r2.Sat {
			// The whole region can enter: no refinement here, keep walking.
			cur = stp.From
			continue
		}
		_, outs := o.g.PartitionOn(&st.Meter, stp.From, wp)
		o.g.Eliminate(stp.CFG, outs, cur)
		// Regions were retired by the split; restart the path search.
		return punch.Result{}, false
	}
	// Backward pass survived: the path is abstractly feasible from entry.
	entrySat := st.Sat(logic.Conj(cur.F, q.Q.Pre))
	if entrySat.Known && !entrySat.Sat {
		return punch.Result{}, false
	}
	return st.confirmForward(path)
}

// backwardCall handles a call edge during the backward pass. progressed
// reports that a refinement was applied (restart path search); otherwise
// the returned region is the refined position before the call (nil to
// abort the walk).
func (st *stepper) backwardCall(prefix []regions.EdgeID, stp regions.Step, cur *regions.Region, callee string) (*regions.Region, bool) {
	o := st.o
	k := o.g.Edge(stp.CFG, stp.From, cur)
	mr := st.ctx.ModRefOf(callee)
	var modG []lang.Var
	for _, g := range o.globals {
		if mr.Mod[g] {
			modG = append(modG, g)
		}
	}
	st.Charge(6)
	wf, _ := logic.Exists(cur.F, modG, logic.Over)
	f1 := logic.Conj(stp.From.F, wf)
	r1 := st.Sat(f1)
	if r1.Known && !r1.Sat {
		o.g.Kill(k)
		st.debugf("frame-refuted call edge %v", stp)
		return nil, true
	}
	f2 := logic.Conj(stp.From.F, logic.Not(wf))
	if r2 := st.Sat(f2); r2.Known && r2.Sat {
		_, outs := o.g.PartitionOn(&st.Meter, stp.From, wf)
		o.g.Eliminate(stp.CFG, outs, cur)
		st.debugf("frame-split call edge %v", stp)
		return nil, true
	}

	postG := st.projectGlobals(cur.F)

	// Precise calling context: forward symbolic execution along the path
	// prefix (falling back to the region projection while earlier calls
	// on the prefix still lack summaries).
	pre := st.projectGlobals(stp.From.F)
	if cond, store, ok := st.followPath(prefix); ok {
		conj := []logic.Formula{cond, logic.SubstMap(stp.From.F, store)}
		for _, g := range o.globals {
			conj = append(conj, logic.Eq(logic.LinVar(g), store[g]))
		}
		full := logic.Conj(conj...)
		var elimVars []lang.Var
		for _, v := range logic.FreeVars(full) {
			if !isGlobal(o.globals, v) {
				elimVars = append(elimVars, v)
			}
		}
		st.Charge(6)
		proj, _ := logic.Exists(full, elimVars, logic.Over)
		st.Charge(8)
		proj = st.Solver.Simplify(proj)
		if r := st.Sat(proj); !(r.Known && !r.Sat) && logic.Size(proj) < regions.MaxPreSize {
			pre = proj
		}
	}

	for _, s := range st.ctx.DB.ForProc(callee) {
		if s.Kind != summary.NotMay {
			continue
		}
		if !st.Implies(postG, s.Post) {
			continue
		}
		g1 := logic.Conj(stp.From.F, s.Pre)
		rg1 := st.Sat(g1)
		if rg1.Known && !rg1.Sat {
			continue
		}
		g2 := logic.Conj(stp.From.F, logic.Not(s.Pre))
		rg2 := st.Sat(g2)
		if rg2.Known && !rg2.Sat {
			o.g.Kill(k)
			st.debugf("summary-refuted call edge %v via %v", stp, s)
			return nil, true
		}
		ins, _ := o.g.PartitionOn(&st.Meter, stp.From, s.Pre)
		o.g.Eliminate(stp.CFG, ins, cur)
		st.debugf("summary-split call edge %v via %v", stp, s)
		return nil, true
	}

	// A must summary answering the precise-context question confirms the
	// call edge can be crossed from this path; continue the backward walk
	// from the source region (a sound over-approximation).
	if _, yes := st.ctx.DB.AnswerYes(summary.Question{Proc: callee, Pre: pre, Post: postG}); yes {
		return stp.From, false
	}

	// No summary helps: issue a child sub-query. The precondition is the
	// exact calling context computed by forward symbolic execution along
	// the path prefix (the counterexample-guided context of a software
	// model checker); the region projection is the fallback when the
	// prefix itself cannot be followed yet.
	if o.g.Attempt(k) > st.a.MaxAttempts {
		o.g.SetStuck(k)
		st.debugf("call edge %v STUCK", stp)
		return nil, true
	}
	question := summary.Question{Proc: callee, Pre: pre, Post: postG}
	child := st.ctx.Alloc.New(st.q.ID, question)
	st.children = append(st.children, child)
	o.g.SetPending(k, &question)
	st.debugf("child Q%d for %s: %v", child.ID, callee, question)
	return nil, true
}

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
	st.Charge(8)
	return st.Solver.Simplify(f)
}

// followPath forward-executes the abstract path symbolically, crossing
// calls with point-applicable must summaries. ok=false when a call could
// not be crossed or the path condition became unsatisfiable.
func (st *stepper) followPath(path []regions.EdgeID) (logic.Formula, map[lang.Var]logic.Lin, bool) {
	cond, store, _, ok := st.followPathFull(path, false)
	return cond, store, ok
}

func (st *stepper) followPathFull(path []regions.EdgeID, penalize bool) (logic.Formula, map[lang.Var]logic.Lin, map[lang.Var]lang.Var, bool) {
	o, q := st.o, st.q
	store := map[lang.Var]logic.Lin{}
	initSyms := map[lang.Var]lang.Var{}
	ren := map[lang.Var]lang.Var{}
	vars := append(append([]lang.Var{}, o.globals...), o.proc.Locals...)
	for _, v := range vars {
		s := st.freshSym(v)
		initSyms[v] = s
		store[v] = logic.LinVar(s)
		ren[v] = s
	}
	cond := logic.Rename(q.Q.Pre, ren)
	for _, id := range path {
		stp := o.g.Step(id)
		e := o.proc.Edges[stp.CFG]
		switch stmt := e.Stmt.(type) {
		case lang.Assign:
			rhs := logic.FromInt(stmt.Rhs)
			val := logic.LinConst(rhs.K)
			for i, v := range rhs.Vars {
				val = val.Add(store[v].Scale(rhs.Coefs[i]))
			}
			store = cloneStore(store)
			store[stmt.Lhs] = val
		case lang.Assume:
			cond = logic.Conj(cond, logic.SubstMap(logic.FromBool(stmt.Cond), store))
		case lang.Havoc:
			store = cloneStore(store)
			store[stmt.V] = logic.LinVar(st.freshSym(stmt.V))
		case lang.Skip:
		case lang.Call:
			ok := false
			calleeMR := st.ctx.ModRefOf(stmt.Proc)
			for _, s := range st.ctx.DB.ForProc(stmt.Proc) {
				if s.Kind != summary.Must || !st.pointApplicable(s) {
					continue
				}
				c2 := logic.Conj(cond, logic.SubstMap(s.Pre, store))
				r := st.Sat(c2)
				if !(r.Known && r.Sat) {
					continue
				}
				ns := cloneStore(store)
				rren := map[lang.Var]lang.Var{}
				for _, g := range o.globals {
					if !calleeMR.Mod[g] {
						continue
					}
					sym := st.freshSym(g)
					ns[g] = logic.LinVar(sym)
					rren[g] = sym
				}
				cond = logic.Conj(c2, logic.SubstMap(logic.Rename(s.Post, rren), store))
				store = ns
				ok = true
				break
			}
			if !ok {
				if penalize {
					// The abstraction believes the path feasible but no
					// exact crossing is available; penalize this call edge
					// so the search tries elsewhere.
					if o.g.Attempt(id) > st.a.MaxAttempts {
						o.g.SetStuck(id)
					}
				}
				return nil, nil, nil, false
			}
		}
		// Land in the step's destination region.
		cond = logic.Conj(cond, logic.SubstMap(stp.To.F, store))
		r := st.Sat(cond)
		if r.Known && !r.Sat {
			return nil, nil, nil, false
		}
	}
	return cond, store, initSyms, true
}

// confirmForward re-executes the abstract path exactly (symbolically) and
// finishes the query with a must summary on success.
func (st *stepper) confirmForward(path []regions.EdgeID) (punch.Result, bool) {
	cond, store, initSyms, ok := st.followPathFull(path, true)
	if !ok {
		return punch.Result{}, false
	}
	hit := logic.Conj(cond, logic.SubstMap(st.q.Q.Post, store))
	r := st.Sat(hit)
	if r.Model == nil {
		return punch.Result{}, false
	}
	st.emitMustSummary(initSyms, store, hit, r.Model)
	st.debugf("DONE reachable (confirmed path)")
	return st.finish(query.Done, query.Reachable), true
}

func (st *stepper) freshSym(v lang.Var) lang.Var {
	s := lang.Var(fmt.Sprintf("$y%d_%d_%s", st.q.ID, st.o.symCount, v))
	st.o.symCount++
	return s
}

func (st *stepper) pointApplicable(s summary.Summary) bool {
	vars := logic.FreeVars(s.Pre)
	if len(vars) == 0 {
		return true
	}
	m := st.Solver.Model(s.Pre)
	if m == nil {
		return false
	}
	st.Charge(4)
	var fs []logic.Formula
	for _, g := range vars {
		fs = append(fs, logic.Eq(logic.LinVar(g), logic.LinConst(m[g])))
	}
	return st.Solver.Implies(s.Pre, logic.Conj(fs...))
}

// emitMustSummary mirrors the frame-aware generation of the other
// instantiations.
func (st *stepper) emitMustSummary(initSyms map[lang.Var]lang.Var, store map[lang.Var]logic.Lin, fullConj logic.Formula, m map[lang.Var]int64) {
	o, q := st.o, st.q
	mr := st.ctx.ModRefOf(q.Q.Proc)
	constrained := map[lang.Var]bool{}
	for _, v := range logic.FreeVars(fullConj) {
		constrained[v] = true
	}
	for _, g := range o.globals {
		if mr.Mod[g] {
			for _, v := range store[g].Vars {
				constrained[v] = true
			}
		}
	}
	var prefs, framePosts []logic.Formula
	for _, g := range o.globals {
		if !constrained[initSyms[g]] {
			continue
		}
		v := m[initSyms[g]]
		prefs = append(prefs, logic.Eq(logic.LinVar(g), logic.LinConst(v)))
		if !mr.Mod[g] {
			framePosts = append(framePosts, logic.Eq(logic.LinVar(g), logic.LinConst(v)))
		}
	}
	var posts []logic.Formula
	for _, g := range o.globals {
		if mr.Mod[g] {
			posts = append(posts, logic.Eq(logic.LinVar(g), logic.LinConst(store[g].Eval(m))))
		}
	}
	posts = append(posts, framePosts...)
	st.ctx.DB.Add(summary.Summary{Kind: summary.Must, Proc: q.Q.Proc, Pre: logic.Conj(prefs...), Post: logic.Conj(posts...)})
}

func isGlobal(globals []lang.Var, v lang.Var) bool {
	for _, g := range globals {
		if g == v {
			return true
		}
	}
	return false
}

func cloneStore(s map[lang.Var]logic.Lin) map[lang.Var]logic.Lin {
	out := make(map[lang.Var]logic.Lin, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
