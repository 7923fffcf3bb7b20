// Entailment over immutable formulas is a pure function of the two
// operands, so a memoized Implies/Valid verdict (Solver.entail) never
// needs invalidation; SUMDB's version-invalidated answer memo composes
// with it unchanged. This file holds the syntactic pre-check run on a miss.
package smt

import (
	"repro/internal/logic"
)

// maxSynConjuncts bounds the quadratic conjunct-subsumption scan.
const maxSynConjuncts = 16

// syntacticImplies is the cheap literal-subsumption pre-check run before
// DPLL: it proves a ⇒ b when every conjunct of b is entailed by some
// conjunct of a, where "entailed" is structural equality or, for ≤-atoms,
// a constant-offset comparison (L ≤ 0 entails L + c ≤ 0 for c ≤ 0).
// A true answer is always sound; false means "fall through to the solver".
func syntacticImplies(a, b logic.Formula) bool {
	if bb, ok := b.(logic.Bool); ok {
		return bool(bb)
	}
	if ab, ok := a.(logic.Bool); ok && !bool(ab) {
		return true
	}
	ac, bc := conjunctsOf(a), conjunctsOf(b)
	if len(ac) > maxSynConjuncts || len(bc) > maxSynConjuncts {
		return false
	}
	keys := make(map[logic.ID]bool, len(ac))
	for _, g := range ac {
		keys[logic.KeyID(g)] = true
	}
	for _, g := range bc {
		if !conjunctEntailed(ac, keys, g) {
			return false
		}
	}
	return true
}

// conjunctsOf returns the top-level conjuncts of f (f itself when it is
// not a conjunction). Conj flattens at construction, so one level is
// enough.
func conjunctsOf(f logic.Formula) []logic.Formula {
	if and, ok := f.(logic.And); ok {
		return and.Fs
	}
	return []logic.Formula{f}
}

// conjunctEntailed reports whether some conjunct of a entails g
// syntactically.
func conjunctEntailed(ac []logic.Formula, keys map[logic.ID]bool, g logic.Formula) bool {
	if keys[logic.KeyID(g)] {
		return true
	}
	ga, ok := g.(logic.Atom)
	if !ok || ga.Eq {
		return false
	}
	for _, h := range ac {
		ha, ok := h.(logic.Atom)
		if !ok || ha.Eq {
			continue
		}
		// h: L ≤ 0 entails g: L + c ≤ 0 whenever c ≤ 0.
		if ga.L.K <= ha.L.K && ga.L.AddConst(-ga.L.K).Equal(ha.L.AddConst(-ha.L.K)) {
			return true
		}
	}
	return false
}
