package smt

// DisableStepMemos makes s compute every StepFeasible and Simplify answer
// afresh. The switch exists for tests alone: there is no way to reach it
// from outside this package's tests.
func (s *Solver) DisableStepMemos() { s.noStepMemo = true }
