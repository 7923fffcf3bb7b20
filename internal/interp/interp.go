// Package interp is a bounded concrete interpreter for cfg programs. It
// plays the role the concrete test executions play in DART/CUTE-style
// must-analyses, and serves as the ground-truth oracle in the test suite:
// every must summary should be witnessed by a concrete run, and no
// not-may proof may ever be contradicted by one.
package interp

import (
	"fmt"
	"math/rand"

	"repro/internal/cfg"
	"repro/internal/lang"
)

// State is a concrete valuation of variables.
type State map[lang.Var]int64

// Clone copies the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Options configure a run.
type Options struct {
	// MaxSteps bounds the number of edges executed (including in callees);
	// 0 means a default of 100000.
	MaxSteps int
	// Rand resolves havocs and nondeterministic branch choices; nil uses a
	// fixed seed.
	Rand *rand.Rand
	// HavocValues, when non-nil, resolves havocs in order (wrapping
	// around); it overrides Rand for havoc resolution, enabling
	// model-directed executions.
	HavocValues []int64
	// HavocRange bounds random havoc values to [-HavocRange, HavocRange];
	// 0 means 16.
	HavocRange int64
	// RecordTrace captures the executed edges and havoc draws in the
	// Result (for counterexample reporting).
	RecordTrace bool
	// HavocPool, when non-empty, biases havoc draws: half the draws come
	// uniformly from the pool (typically the program's literal constants
	// and their neighbours — the classic fuzzing trick for guards like
	// x == 100), the rest from the random range.
	HavocPool []int64
}

// Result reports the outcome of an execution.
type Result struct {
	// Completed is true when main's exit was reached within the budget.
	Completed bool
	// Stuck is true when no outgoing edge was enabled (all assumes false).
	Stuck bool
	// Final is the state at termination (exit, stuck point, or budget
	// exhaustion).
	Final State
	// Steps is the number of edges executed.
	Steps int
	// Trace is the executed edge sequence (only when Options.RecordTrace).
	Trace []TraceStep
	// Havocs are the nondeterministic values drawn, in order (only when
	// Options.RecordTrace). Replaying them via HavocValues reproduces the
	// run when branch nondeterminism is absent.
	Havocs []int64
}

// TraceStep is one executed edge.
type TraceStep struct {
	Proc     string
	From, To cfg.NodeID
	Stmt     lang.Stmt
}

type runner struct {
	prog     *cfg.Program
	rng      *rand.Rand
	havocs   []int64
	havocIdx int
	havocRng int64
	steps    int
	maxSteps int
	record   bool
	trace    []TraceStep
	drawn    []int64
	pool     []int64
}

// Run executes the program's main procedure from an all-zero initial state
// (modified by opts) and returns the result.
func Run(prog *cfg.Program, opts Options) Result {
	return RunProc(prog, prog.Main, State{}, opts)
}

// RunProc executes the named procedure from the given global state.
// Locals start at zero.
func RunProc(prog *cfg.Program, proc string, globals State, opts Options) Result {
	r := &runner{
		prog:     prog,
		rng:      opts.Rand,
		havocs:   opts.HavocValues,
		havocRng: opts.HavocRange,
		maxSteps: opts.MaxSteps,
		record:   opts.RecordTrace,
		pool:     opts.HavocPool,
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(0))
	}
	if r.havocRng == 0 {
		r.havocRng = 16
	}
	if r.maxSteps == 0 {
		r.maxSteps = 100000
	}
	state := State{}
	for _, g := range prog.Globals {
		state[g] = globals[g]
	}
	p := prog.Proc(proc)
	if p == nil {
		panic(fmt.Sprintf("interp: no procedure %q", proc))
	}
	completed, stuck := r.exec(p, state)
	return Result{Completed: completed, Stuck: stuck, Final: state, Steps: r.steps, Trace: r.trace, Havocs: r.drawn}
}

// exec runs proc to its exit, mutating state (globals persist; locals are
// scoped by save/restore).
func (r *runner) exec(proc *cfg.Proc, state State) (completed, stuck bool) {
	// Scope locals: save outer bindings, zero ours, restore on return.
	saved := make(map[lang.Var]int64, len(proc.Locals))
	had := make(map[lang.Var]bool, len(proc.Locals))
	for _, l := range proc.Locals {
		if v, ok := state[l]; ok {
			saved[l] = v
			had[l] = true
		}
		state[l] = 0
	}
	defer func() {
		for _, l := range proc.Locals {
			if had[l] {
				state[l] = saved[l]
			} else {
				delete(state, l)
			}
		}
	}()

	node := proc.Entry
	for node != proc.Exit {
		if r.steps >= r.maxSteps {
			return false, false
		}
		// Collect enabled edges.
		var enabled []cfg.Edge
		for _, ei := range proc.Out[node] {
			e := proc.Edges[ei]
			if a, ok := e.Stmt.(lang.Assume); ok {
				if !evalBool(a.Cond, state) {
					continue
				}
			}
			enabled = append(enabled, e)
		}
		if len(enabled) == 0 {
			return false, true
		}
		e := enabled[0]
		if len(enabled) > 1 {
			e = enabled[r.rng.Intn(len(enabled))]
		}
		r.steps++
		if r.record {
			r.trace = append(r.trace, TraceStep{Proc: proc.Name, From: e.From, To: e.To, Stmt: e.Stmt})
		}
		switch s := e.Stmt.(type) {
		case lang.Assign:
			state[s.Lhs] = evalInt(s.Rhs, state)
		case lang.Assume, lang.Skip:
			// Guard already checked; no state change.
		case lang.Havoc:
			state[s.V] = r.nextHavoc()
		case lang.Call:
			callee := r.prog.Proc(s.Proc)
			done, st := r.exec(callee, state)
			if !done {
				return false, st
			}
		default:
			panic(fmt.Sprintf("interp: unknown Stmt %T", e.Stmt))
		}
		node = e.To
	}
	return true, false
}

func (r *runner) nextHavoc() int64 {
	var v int64
	switch {
	case len(r.havocs) > 0:
		v = r.havocs[r.havocIdx%len(r.havocs)]
		r.havocIdx++
	case len(r.pool) > 0 && r.rng.Intn(2) == 0:
		v = r.pool[r.rng.Intn(len(r.pool))]
	default:
		v = r.rng.Int63n(2*r.havocRng+1) - r.havocRng
	}
	if r.record {
		r.drawn = append(r.drawn, v)
	}
	return v
}

func evalInt(e lang.IntExpr, s State) int64 {
	switch e := e.(type) {
	case lang.Const:
		return e.Val
	case lang.Ref:
		return s[e.V]
	case lang.Add:
		return evalInt(e.X, s) + evalInt(e.Y, s)
	case lang.Sub:
		return evalInt(e.X, s) - evalInt(e.Y, s)
	case lang.Neg:
		return -evalInt(e.X, s)
	case lang.Mul:
		return e.K * evalInt(e.X, s)
	default:
		panic(fmt.Sprintf("interp: unknown IntExpr %T", e))
	}
}

func evalBool(b lang.BoolExpr, s State) bool {
	switch b := b.(type) {
	case lang.BoolConst:
		return b.Val
	case lang.Cmp:
		x, y := evalInt(b.X, s), evalInt(b.Y, s)
		switch b.Op {
		case lang.Lt:
			return x < y
		case lang.Le:
			return x <= y
		case lang.Gt:
			return x > y
		case lang.Ge:
			return x >= y
		case lang.Eq:
			return x == y
		case lang.Ne:
			return x != y
		}
		panic(fmt.Sprintf("interp: invalid CmpOp %v", b.Op))
	case lang.And:
		return evalBool(b.X, s) && evalBool(b.Y, s)
	case lang.Or:
		return evalBool(b.X, s) || evalBool(b.Y, s)
	case lang.Not:
		return !evalBool(b.X, s)
	default:
		panic(fmt.Sprintf("interp: unknown BoolExpr %T", b))
	}
}
