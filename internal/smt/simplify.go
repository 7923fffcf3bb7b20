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
// refinement-based analyses from accumulating junk across splits. The
// result is a pure function of f and is memoized on its id: the same
// region formula is simplified again by every query that splits the same
// way.
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
	k := idKey{a: logic.KeyID(f)}
	keyed := !s.noStepMemo
	if keyed {
		if g, ok := s.simp.get(k); ok {
			return g
		}
	}
	kept := make([]logic.Formula, len(fs))
	for i, g := range fs {
		kept[i] = s.Simplify(g)
	}
	// Greedy deletion filter, scanning from the back so recently added
	// (usually more redundant) parts go first.
	for i := len(kept) - 1; i >= 0 && len(kept) > 1; i-- {
		rest := make([]logic.Formula, 0, len(kept)-1)
		rest = append(rest, kept[:i]...)
		rest = append(rest, kept[i+1:]...)
		if isAnd && s.Implies(logic.Conj(rest...), kept[i]) || !isAnd && s.Implies(kept[i], logic.Disj(rest...)) {
			kept = rest
		}
	}
	out := logic.Disj(kept...)
	if isAnd {
		out = logic.Conj(kept...)
	}
	if keyed {
		s.simp.put(k, out)
	}
	return out
}
