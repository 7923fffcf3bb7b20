package smt

import (
	"repro/internal/logic"
)

// maxSimplifyParts bounds the width of conjunctions/disjunctions the
// simplifier will attempt; larger formulas are returned unchanged.
const maxSimplifyParts = 48

// Simplify removes redundant conjuncts and disjuncts from f using
// implication checks: a conjunct implied by its siblings is dropped, as is
// a disjunct that implies the disjunction of its siblings. The result is
// logically equivalent to f. Simplification keeps the region formulas of
// refinement-based analyses from accumulating junk across splits, so it
// is called where the result is kept, never only to feed Sat: dropping an
// implied atom cannot turn a satisfiable formula unsatisfiable, but it can
// weaken a refutation. The result is a pure function of f and is memoized
// on its id: the same region formula is simplified again by every query
// that splits the same way.
func (s *Solver) Simplify(f logic.Formula) logic.Formula {
	var fs []logic.Formula
	and, isAnd := f.(logic.And)
	if isAnd {
		fs = and.Fs
	} else if or, ok := f.(logic.Or); ok {
		fs = or.Fs
	}
	if len(fs) == 0 || len(fs) > maxSimplifyParts {
		return f
	}
	k := key1(logic.KeyID(f))
	keyed := !s.noStepMemo
	if keyed {
		if _, g, ok := s.simp.get(0, k); ok {
			return g
		}
	}
	var out logic.Formula
	if isAnd && isCube(fs) {
		out = s.simplifyCube(fs)
	} else {
		out = s.simplifyJunction(fs, isAnd)
	}
	if keyed {
		s.simp.put(0, k, 0, out, true)
	}
	return out
}

// isCube reports whether every part of a conjunction is a ≤-atom.
func isCube(fs []logic.Formula) bool {
	for _, g := range fs {
		if a, ok := g.(logic.Atom); !ok || a.Eq {
			return false
		}
	}
	return true
}

// simplifyJunction is the greedy deletion filter over formulas: each part
// simplified, then, scanning from the back so recently added (usually
// more redundant) parts go first, a part dropped when Implies proves the
// rest subsume it.
func (s *Solver) simplifyJunction(fs []logic.Formula, isAnd bool) logic.Formula {
	kept := make([]logic.Formula, len(fs))
	for i, g := range fs {
		kept[i] = s.Simplify(g)
	}
	for i := len(kept) - 1; i >= 0 && len(kept) > 1; i-- {
		rest := make([]logic.Formula, 0, len(kept)-1)
		rest = append(rest, kept[:i]...)
		rest = append(rest, kept[i+1:]...)
		if isAnd && s.Implies(logic.Conj(rest...), kept[i]) || !isAnd && s.Implies(kept[i], logic.Disj(rest...)) {
			kept = rest
		}
	}
	if isAnd {
		return logic.Conj(kept...)
	}
	return logic.Disj(kept...)
}

// simplifyCube is simplifyJunction's filter for a conjunction of
// ≤-atoms, decided in the cube kernel: an atom is dropped when the
// subsumption rule settles it (under the entailment cache, where Implies
// runs the rule first) or when Fourier–Motzkin refutes the other atoms
// together with its negation. That is the verdict Implies reaches on the
// formulas: their conjunction is one cube, far below maxFormulaSize, and
// Sat proves a cube unsatisfiable exactly when that elimination refutes
// it. So the same atoms are kept, without building the conjunctions, the
// negations and the Sat calls.
func (s *Solver) simplifyCube(fs []logic.Formula) logic.Formula {
	var keptBuf, restBuf [maxSimplifyParts]logic.Formula
	var cubeBuf [maxSimplifyParts]logic.Atom
	kept := append(keptBuf[:0], fs...)
	fm := logic.GetScratch()
	defer fm.Release()
	for i := len(kept) - 1; i >= 0 && len(kept) > 1; i-- {
		rest := append(append(restBuf[:0], kept[:i]...), kept[i+1:]...)
		implied := s.entailOn && len(rest) <= maxSynConjuncts && conjunctEntailed(rest, kept[i])
		if implied {
			s.tick(1)
		} else {
			c := cubeBuf[:0]
			for _, g := range rest {
				c = append(c, g.(logic.Atom))
			}
			implied = fm.Entails(c, kept[i].(logic.Atom))
			s.tick(int64(len(c)) + 1)
		}
		if implied {
			kept = append(kept[:i], kept[i+1:]...)
		}
	}
	return logic.Conj(kept...)
}
