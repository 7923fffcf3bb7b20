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
	// Debug, when non-nil, receives a trace of analysis decisions.
	Debug io.Writer
}

// New returns a may analysis with default limits.
func New() *Analysis {
	return &Analysis{Budget: 900, MaxAttempts: 8}
}

// Name implements punch.Punch.
func (a *Analysis) Name() string { return "may (CEGAR-style)" }

type obj struct {
	regions.Hold // the region graph, built by the first Step
	proc         *cfg.Proc
	globals      []lang.Var
	syms         punch.Syms
	initialized  bool
}

// Step implements punch.Punch.
func (a *Analysis) Step(ctx *punch.Context, q *query.Query) punch.Result {
	st := &stepper{Stepper: punch.NewStepper(ctx, q, "may ", a.Debug), a: a}
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
		st.o = &obj{proc: st.Ctx.Prog.Proc(st.Q.Q.Proc), globals: st.Ctx.Prog.Globals, syms: punch.NewSyms("$y", st.Q.ID)}
	}
	if outcome, ok := st.Answered(); ok {
		return st.finish(query.Done, outcome)
	}
	if !st.o.initialized {
		st.o.initialized = true
		if st.EmptyPre() {
			return st.finish(query.Done, query.Unreachable)
		}
		st.o.G = regions.Take(st.Ctx.Shelf, st.o.proc, st.Q.Q.Post)
	}
	st.o.G.SweepPending(st.Ctx.DB)

	for {
		if st.Cost >= st.a.Budget {
			return st.finish(query.Ready, query.Pending)
		}
		path := st.o.G.FindPath(&st.Meter, st.Q.Q.Pre, true)
		if path == nil {
			if st.o.G.FindPath(&st.Meter, st.Q.Q.Pre, false) == nil {
				st.NotMay(st.o.G.ProvedPre(&st.Meter, st.Q.Q.Pre, st.o.globals))
				st.Debugf("DONE unreachable (no abstract path)")
				return st.finish(query.Done, query.Unreachable)
			}
			st.Debugf("BLOCKED")
			return st.finish(query.Blocked, query.Pending)
		}
		if res, done := st.refuteOrConfirm(path); done {
			return res
		}
	}
}

// refuteOrConfirm walks the abstract path backwards splitting regions on
// suffix preimages; if the path survives to the entry it is confirmed by
// exact forward symbolic execution. done=true ends the query.
func (st *stepper) refuteOrConfirm(path []regions.EdgeID) (punch.Result, bool) {
	o, q := st.o, st.Q
	// cur is the refined suffix-reaching set at the current position,
	// represented by a live region.
	cur := o.G.Step(path[len(path)-1]).To
	for i := len(path) - 1; i >= 0; i-- {
		stp := o.G.Step(path[i])
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
			o.G.Kill(o.G.Edge(stp.CFG, stp.From, cur))
			st.Debugf("refuted path at step %d (edge n%d->n%d)", i, e.From, e.To)
			return punch.Result{}, false
		}
		f2 := logic.Conj(stp.From.F, logic.Not(wp))
		r2 := st.Sat(f2)
		if r2.Known && !r2.Sat {
			// The whole region can enter: no refinement here, keep walking.
			cur = stp.From
			continue
		}
		_, outs := o.G.PartitionOn(&st.Meter, stp.From, wp)
		o.G.Eliminate(stp.CFG, outs, cur)
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
	// The call edge into cur, the refined position after the call.
	at := regions.Step{ID: o.G.Edge(stp.CFG, stp.From, cur), CFG: stp.CFG, From: stp.From, To: cur}
	if o.G.FrameSplit(&st.Meter, at, o.globals, st.Ctx.ModRefOf(callee)) {
		st.Debugf("frame-refined call edge %v", at)
		return nil, true
	}

	postG := st.projectGlobals(cur.F)

	// Precise calling context: forward symbolic execution along the path
	// prefix (falling back to the region projection while earlier calls
	// on the prefix still lack summaries).
	pre := st.projectGlobals(stp.From.F)
	if cond, store, _, ok := st.followPath(prefix, false); ok {
		proj := st.Project(cond, store, stp.From.F, o.globals)
		st.Charge(8)
		proj = st.Solver.Simplify(proj)
		if r := st.Sat(proj); !(r.Known && !r.Sat) && logic.Size(proj) < regions.MaxPreSize {
			pre = proj
		}
	}

	if refined, _ := o.G.SummarySplit(&st.Meter, st.Ctx.DB, callee, postG, at); refined {
		st.Debugf("summary-refined call edge %v", at)
		return nil, true
	}

	// A must summary answering the precise-context question confirms the
	// call edge can be crossed from this path; continue the backward walk
	// from the source region (a sound over-approximation).
	question := summary.Question{Proc: callee, Pre: pre, Post: postG}
	if _, yes := st.Ctx.DB.AnswerYes(question); yes {
		return stp.From, false
	}

	// No summary helps: issue a child sub-query. The precondition is the
	// exact calling context computed by forward symbolic execution along
	// the path prefix (the counterexample-guided context of a software
	// model checker); the region projection is the fallback when the
	// prefix itself cannot be followed yet.
	if o.G.Attempt(at.ID) > st.a.MaxAttempts {
		o.G.SetStuck(at.ID)
		st.Debugf("call edge %v STUCK", at)
		return nil, true
	}
	child := st.Ask(question)
	o.G.SetPending(at.ID, &question)
	st.Debugf("child Q%d for %s: %v", child.ID, callee, question)
	return nil, true
}

func (st *stepper) projectGlobals(f logic.Formula) logic.Formula {
	if elim := punch.NonGlobals(f, st.o.globals); len(elim) > 0 {
		st.Charge(6)
		f, _ = logic.Exists(f, elim, logic.Over)
	}
	st.Charge(8)
	return st.Solver.Simplify(f)
}

// followPath forward-executes the abstract path symbolically from the
// question's precondition, crossing calls with point-applicable must
// summaries. ok=false when a call could not be crossed or the path
// condition became unsatisfiable; with penalize set, a call that could not
// be crossed counts an attempt on its edge.
func (st *stepper) followPath(path []regions.EdgeID, penalize bool) (logic.Formula, punch.Store, map[lang.Var]lang.Var, bool) {
	o := st.o
	cond, store, entry := punch.Entry(st.Q.Q.Pre, &o.syms, o.globals, o.proc.Locals)
	for _, id := range path {
		stp := o.G.Step(id)
		e := o.proc.Edges[stp.CFG]
		c, isCall := e.Stmt.(lang.Call)
		if isCall {
			ok := false
			for _, s := range st.Ctx.DB.ForProc(c.Proc) {
				if s.Kind != summary.Must {
					continue
				}
				if point, _ := st.IsPoint(s.Pre); !point {
					continue
				}
				c2 := logic.Conj(cond, logic.SubstMap(s.Pre, store))
				r := st.Sat(c2)
				if !(r.Known && r.Sat) {
					continue
				}
				cross, post := punch.Cross(store, s.Post, o.globals, st.Ctx.ModRefOf(c.Proc), &o.syms)
				cond, store = logic.Conj(c2, post), cross.Apply(store)
				ok = true
				break
			}
			if !ok {
				if penalize {
					// The abstraction believes the path feasible but no
					// exact crossing is available; penalize this call edge
					// so the search tries elsewhere.
					if o.G.Attempt(id) > st.a.MaxAttempts {
						o.G.SetStuck(id)
					}
				}
				return nil, nil, nil, false
			}
		}
		var bind punch.Rebind
		if !isCall {
			cond, bind = punch.Image(cond, store, e.Stmt, &o.syms)
		}
		// Land in the step's destination region.
		cond = logic.Conj(cond, bind.SubstMap(stp.To.F, store))
		r := st.Sat(cond)
		if r.Known && !r.Sat {
			return nil, nil, nil, false
		}
		store = bind.Apply(store)
	}
	return cond, store, entry, true
}

// confirmForward re-executes the abstract path exactly (symbolically) and
// finishes the query with a must summary on success.
func (st *stepper) confirmForward(path []regions.EdgeID) (punch.Result, bool) {
	cond, store, entry, ok := st.followPath(path, true)
	if !ok {
		return punch.Result{}, false
	}
	hit := logic.Conj(cond, logic.SubstMap(st.Q.Q.Post, store))
	r := st.Sat(hit)
	if r.Model == nil {
		return punch.Result{}, false
	}
	st.Ctx.DB.Add(st.MustSummary(punch.Witness{
		Proc: st.Q.Q.Proc, Mod: st.Ctx.ModRefOf(st.Q.Q.Proc), Globals: st.o.globals,
		Entry: entry, Store: store, Hit: hit, Model: r.Model,
	}, false))
	st.Debugf("DONE reachable (confirmed path)")
	return st.finish(query.Done, query.Reachable), true
}
