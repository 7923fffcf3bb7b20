package smt

import (
	"sync/atomic"

	"repro/internal/logic"
)

// satDPLLNaive is the pre-learning lazy SMT loop: restart recursive
// DPLL from scratch after every theory conflict, accumulating blocking
// clauses. Retained verbatim as the differential-testing reference for
// the CDCL solver (FuzzDPLLAgainstReference) — the production path is
// satDPLL in cdcl.go.
func (s *Solver) satDPLLNaive(f logic.Formula) Result {
	sk := newSkeleton(f)
	unknown := false
	for i := 0; i < s.maxConflicts; i++ {
		assign := sk.solve()
		if assign == nil {
			if unknown {
				return Result{Sat: true}
			}
			return Result{Known: true} // propositionally exhausted
		}
		cube := sk.theoryCube(assign)
		r := s.satCube(cube)
		if r.Sat && r.Known {
			return r
		}
		if r.Sat && !r.Known {
			// Rationally satisfiable but no integer witness found: block
			// this assignment and remember we cannot claim UNSAT.
			unknown = true
		}
		atomic.AddInt64(&s.stats.Conflicts, 1)
		sk.block(s, assign, cube, !r.Sat && r.Known)
	}
	return Result{Sat: true}
}

// solve runs recursive DPLL with unit propagation and returns a full
// assignment (index → value) or nil when propositionally unsatisfiable.
func (sk *skeleton) solve() []int8 {
	assign := make([]int8, sk.nvars) // 0 unassigned, 1 true, -1 false
	if sk.dpll(assign) {
		return assign
	}
	return nil
}

func (sk *skeleton) dpll(assign []int8) bool {
	for {
		status, unit := sk.propagateOnce(assign)
		switch status {
		case stConflict:
			return false
		case stUnit:
			set(assign, unit)
			continue
		}
		break
	}
	// Pick the first unassigned variable.
	v := -1
	for i, a := range assign {
		if a == 0 {
			v = i
			break
		}
	}
	if v == -1 {
		return true
	}
	for _, val := range []int8{1, -1} {
		saved := append([]int8(nil), assign...)
		assign[v] = val
		if sk.dpll(assign) {
			return true
		}
		copy(assign, saved)
	}
	return false
}

// propagateOnce scans clauses for a conflict or a unit literal.
func (sk *skeleton) propagateOnce(assign []int8) (propStatus, int) {
	for _, cl := range sk.clauses {
		satisfied := false
		unassigned := 0
		lastFree := 0
		for _, lit := range cl {
			switch litValue(assign, lit) {
			case 1:
				satisfied = true
			case 0:
				unassigned++
				lastFree = lit
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			continue
		}
		if unassigned == 0 {
			return stConflict, 0
		}
		if unassigned == 1 {
			return stUnit, lastFree
		}
	}
	return stStable, 0
}

func set(assign []int8, lit int) {
	if lit > 0 {
		assign[lit-1] = 1
	} else {
		assign[-lit-1] = -1
	}
}

// block adds a clause forbidding the current theory assignment. When the
// conflict is a proven theory UNSAT, the clause is first minimized
// greedily so it prunes more of the search space.
func (sk *skeleton) block(s *Solver, assign []int8, cube logic.Cube, provenUnsat bool) {
	sk.clauses = append(sk.clauses, sk.blockingLits(s, assign, provenUnsat))
}

type propStatus int

const (
	stStable propStatus = iota
	stUnit
	stConflict
)
