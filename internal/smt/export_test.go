package smt

import (
	"sync/atomic"

	"repro/internal/logic"
)

// DisableStepMemos makes s compute every StepFeasible and Simplify answer
// afresh. The switch exists for tests alone: there is no way to reach it
// from outside this package's tests.
func (s *Solver) DisableStepMemos() { s.noStepMemo = true }

// Valid reports whether f is valid (holds in all integer states). Only a
// proven-valid formula yields true. Verdicts are memoized when the
// entailment cache is enabled, keyed by the hash-consed id — the cached
// path does no string building.
func (s *Solver) Valid(f logic.Formula) bool {
	if !s.entailOn {
		return s.validUncached(f)
	}
	key := key2{logic.KeyID(f)} // an Implies key has a second id
	if v, _, ok := s.entail.get(0, key); ok {
		atomic.AddInt64(&s.stats.EntailCacheHits, 1)
		return v != 0
	}
	atomic.AddInt64(&s.stats.EntailCacheMisses, 1)
	v := s.validUncached(f)
	s.entail.put(0, key, verdict(v), struct{}{}, false)
	return v
}

// Equivalent reports whether a ⇔ b is proven valid. Structurally
// identical formulas short-circuit on id equality; otherwise both
// directions go through the (cached) Implies path.
func (s *Solver) Equivalent(a, b logic.Formula) bool {
	if logic.KeyID(a) == logic.KeyID(b) {
		return true
	}
	return s.Implies(a, b) && s.Implies(b, a)
}
