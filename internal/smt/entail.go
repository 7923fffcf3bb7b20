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
// conjunct of a (conjunctEntailed). A true answer is always sound; false
// means "fall through to the solver". It allocates nothing.
func syntacticImplies(a, b logic.Formula) bool {
	if bb, ok := b.(logic.Bool); ok {
		return bool(bb)
	}
	if ab, ok := a.(logic.Bool); ok && !bool(ab) {
		return true
	}
	var aOne, bOne [1]logic.Formula
	ac, bc := conjunctsOf(a, &aOne), conjunctsOf(b, &bOne)
	if len(ac) > maxSynConjuncts || len(bc) > maxSynConjuncts {
		return false
	}
	for _, g := range bc {
		if !conjunctEntailed(ac, g) {
			return false
		}
	}
	return true
}

// conjunctsOf returns the top-level conjuncts of f: f itself, in one,
// when it is not a conjunction. Conj flattens at construction, so one
// level is enough.
func conjunctsOf(f logic.Formula, one *[1]logic.Formula) []logic.Formula {
	if and, ok := f.(logic.And); ok {
		return and.Fs
	}
	one[0] = f
	return one[:]
}

// conjunctEntailed is the subsumption rule: some conjunct of ac entails g
// syntactically, by structural equality or, for ≤-atoms, by a constant
// offset (L ≤ 0 entails L + c ≤ 0 for c ≤ 0). One scan over ac.
func conjunctEntailed(ac []logic.Formula, g logic.Formula) bool {
	gid := logic.KeyID(g)
	ga, isLE := g.(logic.Atom)
	isLE = isLE && !ga.Eq
	for _, h := range ac {
		if logic.KeyID(h) == gid {
			return true
		}
		if ha, ok := h.(logic.Atom); ok && isLE && !ha.Eq && ga.L.K <= ha.L.K && ga.L.AddConst(-ga.L.K).Equal(ha.L.AddConst(-ha.L.K)) {
			return true
		}
	}
	return false
}
