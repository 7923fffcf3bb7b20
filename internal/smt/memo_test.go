package smt

import (
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
)

// held is the number of results the memo's stripes really hold.
func (c *memo[V]) held() (n int64) {
	for i := range c.shards {
		n += int64(len(c.shards[i].m))
	}
	return n
}

// TestMemoCountsInsertsAndHoldsItsBound: workers that miss on the same
// keys at the same time count each key once, and the bound holds exactly
// however their puts interleave. (The Sat memo this type replaced counted
// every put, and read the count before adding to it.)
func TestMemoCountsInsertsAndHoldsItsBound(t *testing.T) {
	const workers, keys, bound = 8, 3000, 1000
	for _, max := range []int64{keys * 2, bound} {
		c := memo[int]{max: max}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= keys; i++ {
					k := idKey{a: logic.ID(i), b: logic.ID(i % 7)}
					if _, ok := c.get(k); !ok {
						c.put(k, i)
					}
				}
			}()
		}
		wg.Wait()
		want := min(max, keys)
		if st := c.stats(); st.Entries != want || c.held() != want || st.Capacity != max {
			t.Fatalf("max %d: %d distinct keys from %d workers: counted %d, held %d, want %d", max, keys, workers, st.Entries, c.held(), want)
		} else if (st.TurnedAway > 0) != (max < keys) {
			t.Fatalf("max %d: turned away %d", max, st.TurnedAway)
		}
		for i := 1; i <= keys; i++ {
			if v, ok := c.get(idKey{a: logic.ID(i), b: logic.ID(i % 7)}); ok && v != i {
				t.Fatalf("key %d holds %d", i, v)
			}
		}
	}
}

// TestStepFeasibleIsTheSatCheck: the memoized one-step check answers what
// Sat answers on ρ ∧ pre(stmt, ρ'), on the first call and on the repeat,
// and is keyed on all three of statement, source and destination.
func TestStepFeasibleIsTheSatCheck(t *testing.T) {
	x := lang.Var("x")
	le := func(k int64) logic.Formula { return logic.LEq(logic.LinVar(x), logic.LinConst(k)) }
	stmts := []lang.Stmt{
		lang.Assign{Lhs: x, Rhs: lang.Add{X: lang.V("x"), Y: lang.C(1)}},
		lang.Assume{Cond: lang.CmpE(lang.V("x"), lang.Ge, lang.C(3))},
		lang.Havoc{V: x},
		lang.Skip{},
	}
	regions := []logic.Formula{logic.True, le(0), logic.Not(le(0)), logic.Conj(logic.Not(le(1)), le(2)), le(5)}
	s, ref := New(), New()
	calls := 0
	for round := 0; round < 2; round++ {
		for i, st := range stmts {
			for _, from := range regions {
				for _, to := range regions {
					r := ref.Sat(logic.Conj(from, logic.Pre(st, to, logic.Over)))
					want := r.Sat || !r.Known
					if got := s.StepFeasible(uint32(i+1), st, from, to); got != want {
						t.Fatalf("round %d: %v from %v to %v: feasible %v, Sat says %v", round, st, from, to, got, want)
					}
					calls++
				}
			}
		}
	}
	st := s.StatsSnapshot()
	if st.StepMemo.Entries != int64(calls/2) {
		t.Fatalf("%d distinct checks, memo holds %d", calls/2, st.StepMemo.Entries)
	}
	if st.SatCalls != int64(calls/2) {
		t.Fatalf("%d distinct checks asked twice made %d Sat calls", calls/2, st.SatCalls)
	}
}

// TestSimplifyMemoReturnsTheSameFormula: a repeated Simplify is answered
// from the memo with the node the first call built, nested parts included.
func TestSimplifyMemoReturnsTheSameFormula(t *testing.T) {
	x := logic.LinVar(lang.Var("x"))
	le := func(k int64) logic.Formula { return logic.LEq(x, logic.LinConst(k)) }
	f := logic.Conj(le(5), le(9), logic.Disj(le(1), le(3), logic.Not(le(20))))
	s, plain := New(), New()
	plain.noStepMemo = true
	first := s.Simplify(f)
	calls := s.StatsSnapshot().SatCalls
	if again := s.Simplify(f); logic.KeyID(again) != logic.KeyID(first) {
		t.Fatalf("second Simplify gave %v, first %v", again, first)
	}
	if st := s.StatsSnapshot(); st.SatCalls != calls || st.SimplifyMemo.Entries != 2 {
		t.Fatalf("repeat made %d Sat calls, memo holds %d (want 0 and 2)", st.SatCalls-calls, st.SimplifyMemo.Entries)
	}
	if want := plain.Simplify(f); logic.KeyID(want) != logic.KeyID(first) || plain.StatsSnapshot().SimplifyMemo.Entries != 0 {
		t.Fatalf("memoized %v, unmemoized %v", first, want)
	}
}
