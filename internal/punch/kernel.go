package punch

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/summary"
)

// Stepper is what one Step of every instantiation holds: the meter of its
// work, the context, the query, and the children it has issued.
type Stepper struct {
	Meter
	Ctx      *Context
	Q        *query.Query
	Children []*query.Query
	tag      string    // the instantiation's prefix of a debug line
	debug    io.Writer // nil: no trace
}

// NewStepper starts a Step of q. Debug lines go to debug, when it is not
// nil, each prefixed with tag and the query.
func NewStepper(ctx *Context, q *query.Query, tag string, debug io.Writer) Stepper {
	return Stepper{Meter: Meter{Solver: ctx.DB.Solver()}, Ctx: ctx, Q: q, tag: tag, debug: debug}
}

// Debugf writes one line of the analysis trace.
func (s *Stepper) Debugf(format string, args ...any) {
	if s.debug == nil {
		return
	}
	fmt.Fprintf(s.debug, "[%sQ%d %s] ", s.tag, s.Q.ID, s.Q.Q.Proc)
	fmt.Fprintf(s.debug, format, args...)
	fmt.Fprintln(s.debug)
}

// Answered is the first step of every PUNCH: when SUMDB answers the
// question already, the query is Done with that outcome and no analysis.
func (s *Stepper) Answered() (query.Outcome, bool) {
	_, verdict := s.Ctx.DB.Answer(s.Q.Q)
	if verdict == 0 {
		return query.Pending, false
	}
	s.Charge(4)
	if verdict > 0 {
		return query.Reachable, true
	}
	return query.Unreachable, true
}

// EmptyPre reports whether the question's precondition is unsatisfiable,
// and adds the not-may summary that answers the question when it is.
func (s *Stepper) EmptyPre() bool {
	if r := s.Sat(s.Q.Q.Pre); !r.Known || r.Sat {
		return false
	}
	s.NotMay(s.Q.Q.Pre)
	return true
}

// NotMay adds the not-may summary that the question's postcondition is
// unreachable from every entry state in pre.
func (s *Stepper) NotMay(pre logic.Formula) {
	s.Ctx.DB.Add(summary.Summary{Kind: summary.NotMay, Proc: s.Q.Q.Proc, Pre: pre, Post: s.Q.Q.Post})
}

// Ask issues a child sub-query of question.
func (s *Stepper) Ask(question summary.Question) *query.Query {
	child := s.Ctx.Alloc.New(s.Q.ID, question)
	s.Children = append(s.Children, child)
	return child
}

// Finish ends the Step: the query goes to state with outcome and keeps obj
// as its verification object. A Done query issues no children, and what
// obj keeps for the next query of its procedure and postcondition (its
// region graph, regions.Hold) goes on the node's shelf.
func (s *Stepper) Finish(state query.State, outcome query.Outcome, obj any) Result {
	s.Q.State, s.Q.Outcome, s.Q.Obj = state, outcome, obj
	children := s.Children
	if state == query.Done {
		children = nil
		if h, ok := obj.(interface{ Shelve(*Shelf) }); ok {
			h.Shelve(s.Ctx.Shelf)
		}
	}
	return Result{Self: s.Q, Children: children, Cost: s.Cost}
}

// Store is a symbolic store: each program variable's value as a linear
// term over symbols. Stores are shared between states; a statement that
// rebinds a variable rebinds it in a copy.
type Store = map[lang.Var]logic.Lin

// Syms mints the fresh symbols of one query's symbolic execution: the
// instantiation's prefix, the query's ID, a running count and the
// variable, as in "$m7_3_x". A "$" cannot appear in a parsed program, so a
// symbol never names a program variable.
type Syms struct {
	prefix string
	n      int
}

// NewSyms returns the symbol source of query q.
func NewSyms(prefix string, q query.ID) Syms {
	return Syms{prefix: fmt.Sprintf("%s%d_", prefix, q)}
}

// Fresh returns a symbol for v that no earlier call returned.
func (s *Syms) Fresh(v lang.Var) lang.Var {
	x := lang.Var(s.prefix + strconv.Itoa(s.n) + "_" + string(v))
	s.n++
	return x
}

// Entry is the symbolic state at a procedure's entry under pre: each of
// vars, in order, bound to a fresh symbol, and pre over those symbols as
// the path condition. entry maps each variable to its symbol.
func Entry(pre logic.Formula, syms *Syms, vars ...[]lang.Var) (path logic.Formula, store Store, entry map[lang.Var]lang.Var) {
	store, entry = Store{}, map[lang.Var]lang.Var{}
	for _, vs := range vars {
		for _, v := range vs {
			x := syms.Fresh(v)
			entry[v] = x
			store[v] = logic.LinVar(x)
		}
	}
	return logic.Rename(pre, entry), store, entry
}

// Image is the symbolic image of a simple statement: Assign rebinds its
// variable to the right-hand side over store and Havoc to a fresh symbol;
// Assume conjoins its condition over store to path; Skip changes nothing.
// The rebinding is returned, not applied: store is copied only by
// Rebind.Apply, once the caller knows the image is not empty. It asks the
// solver nothing: whether the image is empty is the caller's to check.
// Calls are crossed with Cross.
func Image(path logic.Formula, store Store, stmt lang.Stmt, syms *Syms) (logic.Formula, Rebind) {
	switch stmt := stmt.(type) {
	case lang.Assign:
		rhs := logic.FromInt(stmt.Rhs)
		val := logic.LinConst(rhs.K)
		for i, v := range rhs.Vars {
			val = val.Add(store[v].Scale(rhs.Coefs[i]))
		}
		return path, Rebind{V: stmt.Lhs, Val: val}
	case lang.Assume:
		return logic.Conj(path, logic.SubstMap(logic.FromBool(stmt.Cond), store)), Rebind{}
	case lang.Havoc:
		return path, Rebind{V: stmt.V, Val: logic.LinVar(syms.Fresh(stmt.V))}
	case lang.Skip:
		return path, Rebind{}
	default:
		panic(fmt.Sprintf("punch: no image of %T; a call is crossed with Cross", stmt))
	}
}

// Rebind is what a simple statement does to a store: V bound to Val, or
// nothing when V is empty.
type Rebind struct {
	V   lang.Var
	Val logic.Lin
}

// Apply returns store after the rebinding: a copy of store with V bound,
// or store itself when there is nothing to bind.
func (b Rebind) Apply(store Store) Store {
	if b.V == "" {
		return store
	}
	store = maps.Clone(store)
	store[b.V] = b.Val
	return store
}

// SubstMap is logic.SubstMap(f, b.Apply(store)) without the copy.
func (b Rebind) SubstMap(f logic.Formula, store Store) logic.Formula {
	if b.V == "" {
		return logic.SubstMap(f, store)
	}
	return logic.SubstBound(f, store, b.V, b.Val)
}

// Cross crosses a call with a must summary whose postcondition is post:
// the callee can change only the globals in mod, so each of them gets a
// fresh symbol and every other variable passes through. It returns that
// crossing and post over it, the entry values post reads taken from
// store. The crossing is not applied: store is copied only by
// Crossing.Apply, once the caller knows the crossing lands.
func Cross(store Store, post logic.Formula, globals []lang.Var, mod *cfg.ModRef, syms *Syms) (Crossing, logic.Formula) {
	fresh := Store{}
	for _, g := range globals {
		if mod.Mod[g] {
			fresh[g] = logic.LinVar(syms.Fresh(g))
		}
	}
	return Crossing{fresh: fresh}, logic.SubstOver(post, store, fresh)
}

// Crossing is what crossing a call does to a store: each global the callee
// may change bound to its fresh symbol in fresh.
type Crossing struct{ fresh Store }

// Apply returns store after the crossing: a copy of store with the fresh
// symbols bound, or store itself when the callee changes no global.
func (c Crossing) Apply(store Store) Store {
	if len(c.fresh) == 0 {
		return store
	}
	store = maps.Clone(store)
	maps.Copy(store, c.fresh)
	return store
}

// SubstMap is logic.SubstMap(f, c.Apply(store)) without the copy.
func (c Crossing) SubstMap(f logic.Formula, store Store) logic.Formula {
	return logic.SubstOver(f, store, c.fresh)
}

// pins returns v = val(v) for each of vars, in their order.
func pins(vars []lang.Var, val func(lang.Var) int64) []logic.Formula {
	fs := make([]logic.Formula, 0, len(vars))
	for _, v := range vars {
		fs = append(fs, logic.Eq(logic.LinVar(v), logic.LinConst(val(v))))
	}
	return fs
}

// PointEntry is the state of the globals that model gives store:
// ∧ g = store[g](model).
func PointEntry(globals []lang.Var, store Store, model map[lang.Var]int64) logic.Formula {
	return logic.Conj(pins(globals, func(g lang.Var) int64 { return store[g].Eval(model) })...)
}

// IsPoint reports whether pre denotes one valuation of the variables it
// mentions: pre entails the equalities of a model of it. Applying a must
// summary wherever its precondition meets a caller's states is sound only
// then. It charges the model; the entailment, which it checks when
// entailed is set, is left for the caller to price.
func (m *Meter) IsPoint(pre logic.Formula) (point, entailed bool) {
	vars := logic.FreeVars(pre)
	if len(vars) == 0 {
		return true, false
	}
	model := m.Solver.Model(pre)
	if model == nil {
		return false, false
	}
	m.Charge(4)
	return m.Solver.Implies(pre, logic.Conj(pins(vars, func(v lang.Var) int64 { return model[v] })...)), true
}

// Project over-projects the states of a symbolic state (path, store) that
// lie in a region in onto the globals: ∃ symbols. path ∧ in(store) ∧
// ∧ g = store[g].
func (m *Meter) Project(path logic.Formula, store Store, in logic.Formula, globals []lang.Var) logic.Formula {
	conj := []logic.Formula{path, logic.SubstMap(in, store)}
	for _, g := range globals {
		conj = append(conj, logic.Eq(logic.LinVar(g), store[g]))
	}
	full := logic.Conj(conj...)
	m.Charge(6)
	proj, _ := logic.Exists(full, NonGlobals(full, globals), logic.Over)
	return proj
}

// NonGlobals returns the variables of f that are not globals, in the
// order of logic.FreeVars: what a projection onto the globals eliminates.
func NonGlobals(f logic.Formula, globals []lang.Var) []lang.Var {
	var vs []lang.Var
	for _, v := range logic.FreeVars(f) {
		if !slices.Contains(globals, v) {
			vs = append(vs, v)
		}
	}
	return vs
}

// Witness is a symbolic state at a procedure's exit that meets the
// postcondition, with a model of the meet: what a must summary is built
// from.
type Witness struct {
	Proc    string
	Mod     *cfg.ModRef // the procedure's
	Globals []lang.Var
	Entry   map[lang.Var]lang.Var // each variable's entry symbol
	Store   Store                 // at exit
	Hit     logic.Formula         // the path condition ∧ the postcondition over Store
	Model   map[lang.Var]int64    // of Hit
}

// MustSummary builds the frame-aware must summary of w. The precondition
// pins the witness's entry point, but only on the globals the witness
// constrains: those Hit mentions, and those the exit value of a modified
// global reads. Any other entry value admits the same path and image, so
// leaving it free keeps the summary applicable without pinning a caller's
// unrelated state. The postcondition is the point image of the modified
// globals, with the pins of the constrained unmodified ones carried over
// (their exit value is their entry value). With under set, the image of
// the modified globals is Hit under-projected onto them instead, unless
// that collapses: any under-approximation of the image is a sound must
// postcondition.
func (m *Meter) MustSummary(w Witness, under bool) summary.Summary {
	constrained := map[lang.Var]bool{}
	for _, v := range logic.FreeVars(w.Hit) {
		constrained[v] = true
	}
	var modG []lang.Var
	for _, g := range w.Globals {
		if w.Mod.Mod[g] {
			modG = append(modG, g)
			for _, v := range w.Store[g].Vars {
				constrained[v] = true
			}
		}
	}
	var pre, entry, frame []logic.Formula
	for _, g := range w.Globals {
		x := w.Entry[g]
		if !constrained[x] {
			continue
		}
		v := logic.LinConst(w.Model[x])
		pre = append(pre, logic.Eq(logic.LinVar(g), v))
		if under {
			entry = append(entry, logic.Eq(logic.LinVar(x), v))
		}
		if !w.Mod.Mod[g] {
			frame = append(frame, logic.Eq(logic.LinVar(g), v))
		}
	}
	point := func() []logic.Formula {
		return pins(modG, func(g lang.Var) int64 { return w.Store[g].Eval(w.Model) })
	}
	if !under {
		post := append(point(), frame...)
		return summary.Summary{Kind: summary.Must, Proc: w.Proc, Pre: logic.Conj(pre...), Post: logic.Conj(post...)}
	}
	preF := logic.Conj(pre...)
	// ∃ symbols. Hit ∧ entry point ∧ out_g = Store[g], over the outs.
	conj := append([]logic.Formula{w.Hit}, entry...)
	outRen := map[lang.Var]lang.Var{}
	for _, g := range modG {
		out := lang.Var("$out_" + string(g))
		outRen[out] = g
		conj = append(conj, logic.Eq(logic.LinVar(out), w.Store[g]))
	}
	full := logic.Conj(conj...)
	var elim []lang.Var
	for _, v := range logic.FreeVars(full) {
		if _, isOut := outRen[v]; !isOut {
			elim = append(elim, v)
		}
	}
	m.Charge(16)
	proj, _ := logic.Exists(full, elim, logic.Under)
	modPost := logic.Rename(m.Solver.Simplify(proj), outRen)
	if r := m.Sat(modPost); r.Model == nil {
		modPost = logic.Conj(point()...)
	}
	return summary.Summary{Kind: summary.Must, Proc: w.Proc, Pre: preF, Post: logic.Conj(append([]logic.Formula{modPost}, frame...)...)}
}
