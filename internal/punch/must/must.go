// Package must instantiates PUNCH with a pure must-analysis in the style
// of DART/CUTE (§4 of the paper): forward symbolic execution enumerates
// program paths under a loop bound, proving the presence of errors via
// must summaries. Call statements are crossed using must summaries from
// SUMDB; when none applies, a child sub-query is issued and the blocked
// path waits for its answer.
//
// A must-analysis under-approximates: it can prove reachability (bugs) but
// can prove unreachability only when its exploration was exhaustive — no
// loop-bound truncation and no under-approximate call crossings. This
// matches the paper's framing of must-analyses as bug finders.
package must

import (
	"io"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/summary"
)

// Analysis is the must-analysis PUNCH instantiation.
type Analysis struct {
	// Budget is the abstract work budget per Step invocation.
	Budget int64
	// LoopBound caps how often a single CFG edge may repeat on one path.
	LoopBound int
	// MaxStates caps the total symbolic states explored per query.
	MaxStates int
	// Debug, when non-nil, receives a trace of analysis decisions.
	Debug io.Writer
}

// New returns a must analysis with default limits.
func New() *Analysis {
	return &Analysis{Budget: 1200, LoopBound: 8, MaxStates: 4096}
}

// Name implements punch.Punch.
func (a *Analysis) Name() string { return "must (DART-style)" }

// symState is one frontier of the symbolic execution.
type symState struct {
	node   cfg.NodeID
	path   logic.Formula
	store  punch.Store
	visits map[int]int // edge index → times taken on this path
}

// obj is the verification object: the saved exploration state.
type obj struct {
	stack    []*symState
	blocked  map[string][]*symState // pending child key → waiting states
	pending  map[string]summary.Question
	entry    map[lang.Var]lang.Var // each variable's entry symbol
	syms     punch.Syms
	explored int
	// complete stays true while the exploration is exhaustive: no loop
	// truncation, no state-cap hit, and no call crossed via an
	// under-approximate summary.
	complete    bool
	initialized bool
}

// Step implements punch.Punch.
func (a *Analysis) Step(ctx *punch.Context, q *query.Query) punch.Result {
	st := &stepper{Stepper: punch.NewStepper(ctx, q, "must ", a.Debug), a: a}
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

func (st *stepper) proc() *cfg.Proc { return st.Ctx.Prog.Proc(st.Q.Q.Proc) }

func (st *stepper) run() punch.Result {
	if o, ok := st.Q.Obj.(*obj); ok && o != nil {
		st.o = o
	} else {
		st.o = &obj{
			blocked:  map[string][]*symState{},
			pending:  map[string]summary.Question{},
			syms:     punch.NewSyms("$m", st.Q.ID),
			complete: true,
		}
	}
	if outcome, ok := st.Answered(); ok {
		return st.finish(query.Done, outcome)
	}
	if !st.o.initialized {
		st.o.initialized = true
		if st.EmptyPre() {
			return st.finish(query.Done, query.Unreachable)
		}
		path, store, entry := punch.Entry(st.Q.Q.Pre, &st.o.syms, st.Ctx.Prog.Globals, st.proc().Locals)
		st.o.entry = entry
		st.o.stack = append(st.o.stack, &symState{node: st.proc().Entry, path: path, store: store, visits: map[int]int{}})
	}
	st.sweepBlocked()

	for {
		if st.Cost >= st.a.Budget {
			return st.finish(query.Ready, query.Pending)
		}
		if len(st.o.stack) == 0 {
			break
		}
		s := st.o.stack[len(st.o.stack)-1]
		st.o.stack = st.o.stack[:len(st.o.stack)-1]
		if res, done := st.expand(s); done {
			return res
		}
	}

	if len(st.o.pending) > 0 {
		return st.finish(query.Blocked, query.Pending)
	}
	if st.o.complete {
		// Exhaustive exploration found no witness: a sound proof.
		st.NotMay(st.Q.Q.Pre)
		st.Debugf("DONE unreachable (exhaustive exploration)")
		return st.finish(query.Done, query.Unreachable)
	}
	// Truncated exploration with no witness: a must-analysis cannot
	// conclude anything; the query stays Blocked (resource exhaustion at
	// the engine decides the final verdict).
	st.Debugf("BLOCKED (truncated exploration, no witness)")
	return st.finish(query.Blocked, query.Pending)
}

// sweepBlocked re-activates states whose pending child question SUMDB can
// now answer.
func (st *stepper) sweepBlocked() {
	for key, states := range st.o.blocked {
		pq, ok := st.o.pending[key]
		if !ok {
			continue
		}
		if _, verdict := st.Ctx.DB.Answer(pq); verdict == 0 {
			continue
		}
		delete(st.o.pending, key)
		delete(st.o.blocked, key)
		st.o.stack = append(st.o.stack, states...)
	}
}

// expand processes one symbolic state. done=true means the query finished
// (a witness was found).
func (st *stepper) expand(s *symState) (punch.Result, bool) {
	o, q := st.o, st.Q
	proc := st.proc()
	o.explored++
	if o.explored > st.a.MaxStates {
		o.complete = false
		return punch.Result{}, false
	}
	if s.node == proc.Exit {
		hit := logic.Conj(s.path, logic.SubstMap(q.Q.Post, s.store))
		r := st.Sat(hit)
		if r.Model != nil {
			st.Ctx.DB.Add(st.MustSummary(punch.Witness{
				Proc: q.Q.Proc, Mod: st.Ctx.ModRefOf(q.Q.Proc), Globals: st.Ctx.Prog.Globals,
				Entry: o.entry, Store: s.store, Hit: hit, Model: r.Model,
			}, false))
			st.Debugf("DONE reachable after %d states", o.explored)
			return st.finish(query.Done, query.Reachable), true
		}
		return punch.Result{}, false
	}
	for _, ei := range proc.Out[s.node] {
		e := proc.Edges[ei]
		if s.visits[ei] >= st.a.LoopBound {
			o.complete = false
			continue
		}
		if c, isCall := e.Stmt.(lang.Call); isCall {
			st.crossCall(s, ei, e, c.Proc)
			continue
		}
		path, bind := punch.Image(s.path, s.store, e.Stmt, &o.syms)
		if _, isAssume := e.Stmt.(lang.Assume); isAssume {
			if r := st.Sat(path); r.Known && !r.Sat {
				continue
			}
		}
		o.stack = append(o.stack, &symState{node: e.To, path: path, store: bind.Apply(s.store), visits: bumpVisit(s.visits, ei)})
	}
	return punch.Result{}, false
}

// crossCall crosses a call edge using applicable must summaries; when none
// applies, it issues a child sub-query and parks the state.
func (st *stepper) crossCall(s *symState, ei int, e cfg.Edge, callee string) {
	o := st.o
	calleeMR := st.Ctx.ModRefOf(callee)
	crossed := false
	for _, sum := range st.Ctx.DB.ForProc(callee) {
		if sum.Kind != summary.Must {
			continue
		}
		if point, _ := st.IsPoint(sum.Pre); !point {
			continue
		}
		cond := logic.Conj(s.path, logic.SubstMap(sum.Pre, s.store))
		r := st.Sat(cond)
		if !(r.Known && r.Sat) {
			continue
		}
		cross, post := punch.Cross(s.store, sum.Post, st.Ctx.Prog.Globals, calleeMR, &o.syms)
		after := logic.Conj(cond, post)
		ra := st.Sat(after)
		if ra.Known && ra.Sat {
			o.stack = append(o.stack, &symState{node: e.To, path: after, store: cross.Apply(s.store), visits: bumpVisit(s.visits, ei)})
			crossed = true
		}
	}
	if crossed {
		// Summary crossings under-approximate the callee's behaviour;
		// exploration is no longer exhaustive.
		o.complete = false
		return
	}
	// No applicable summary: issue a child for a concrete entry point.
	r := st.Sat(s.path)
	if r.Model == nil {
		return
	}
	question := summary.Question{Proc: callee, Pre: punch.PointEntry(st.Ctx.Prog.Globals, s.store, r.Model), Post: logic.True}
	key := question.Key() + "|edge" + strconv.Itoa(ei)
	if _, dup := st.o.pending[key]; !dup {
		child := st.Ask(question)
		st.o.pending[key] = question
		st.Debugf("child Q%d for %s at edge %d", child.ID, callee, ei)
	}
	// Park a copy that retries the call once the child has answered.
	parked := &symState{node: s.node, path: s.path, store: s.store, visits: s.visits}
	st.o.blocked[key] = append(st.o.blocked[key], parked)
	o.complete = false
}

func bumpVisit(visits map[int]int, ei int) map[int]int {
	out := make(map[int]int, len(visits)+1)
	for k, v := range visits {
		out[k] = v
	}
	out[ei]++
	return out
}
