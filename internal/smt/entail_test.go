package smt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/logic"
)

func TestSyntacticImplies(t *testing.T) {
	x, y := v("x"), v("y")
	cases := []struct {
		name string
		a, b logic.Formula
		want bool
	}{
		{"to-true", le(x, k(3)), logic.True, true},
		{"from-false", logic.False, le(x, k(3)), true},
		{"conjunct-subset", logic.Conj(le(x, k(2)), le(k(0), y)), le(x, k(2)), true},
		{"constant-slack", le(x, k(3)), le(x, k(5)), true},
		{"constant-slack-reverse", le(x, k(5)), le(x, k(3)), false},
		{"different-var", le(x, k(3)), le(y, k(3)), false},
		{"eq-needs-solver", logic.Eq(x, k(3)), le(x, k(3)), false},
	}
	for _, tc := range cases {
		if got := syntacticImplies(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: syntacticImplies(%v, %v) = %v, want %v",
				tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestEquivalentShortCircuit: structurally identical formulas settle by
// Key equality with no solver work, and equivalence still holds (via the
// cached two-direction path) for distinct but equivalent builds.
func TestEquivalentShortCircuit(t *testing.T) {
	s := New().EnableEntailmentCache()
	a := logic.Conj(le(v("x"), k(1)), le(k(0), v("y")))
	b := logic.Conj(le(v("x"), k(1)), le(k(0), v("y")))
	if !s.Equivalent(a, b) {
		t.Fatalf("identical formulas not equivalent")
	}
	if st := s.StatsSnapshot(); st.EntailCacheHits+st.EntailCacheMisses != 0 {
		t.Fatalf("Key-equal pair touched the cache: %+v", st)
	}
	// x = 3 and 3 ≤ x ∧ x ≤ 3 differ structurally but are equivalent:
	// both Implies directions must run, and they go through the cache.
	c := logic.Eq(v("x"), k(3))
	d := logic.Conj(le(k(3), v("x")), le(v("x"), k(3)))
	if !s.Equivalent(c, d) {
		t.Fatalf("x=3 not equivalent to 3<=x<=3")
	}
	if st := s.StatsSnapshot(); st.EntailCacheMisses != 2 {
		t.Fatalf("expected 2 cold Implies lookups, got %+v", st)
	}
	if !s.Equivalent(c, d) {
		t.Fatalf("equivalence lost on repeat")
	}
	if st := s.StatsSnapshot(); st.EntailCacheHits != 2 {
		t.Fatalf("repeat Equivalent did not hit the cache: %+v", st)
	}
}

// TestEntailmentCacheDisabledZeroStats: a solver that never called
// EnableEntailmentCache must keep all cache counters at zero, so the
// uncached reference solver the hammer test compares against never
// touches the cache.
func TestEntailmentCacheDisabledZeroStats(t *testing.T) {
	s := New()
	x := v("x")
	for i := 0; i < 10; i++ {
		s.Implies(le(x, k(int64(i))), le(x, k(int64(i+3))))
		s.Valid(logic.Disj(le(x, k(int64(i))), logic.Not(le(x, k(int64(i))))))
	}
	st := s.StatsSnapshot()
	if st.EntailCacheHits != 0 || st.EntailCacheMisses != 0 || st.EntailSynHits != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", st)
	}
}

// TestEntailmentCacheHammer: 32 goroutines fire random Implies queries
// from a shared pool at one cache-enabled solver; every verdict must
// agree with an uncached reference, and the shared cache must see both
// hits and misses. Run under -race (make race) this is the concurrency
// certificate for the striped cache.
func TestEntailmentCacheHammer(t *testing.T) {
	r := rand.New(rand.NewSource(20260805))
	vars := []logic.Lin{v("x"), v("y"), v("z")}
	pool := make([]logic.Formula, 24)
	for i := range pool {
		n := 1 + r.Intn(3)
		cs := make([]logic.Formula, n)
		for j := range cs {
			vr := vars[r.Intn(len(vars))]
			bound := k(int64(r.Intn(9) - 4))
			if r.Intn(2) == 0 {
				cs[j] = le(vr, bound)
			} else {
				cs[j] = le(bound, vr)
			}
		}
		pool[i] = logic.Conj(cs...)
	}

	// Reference verdicts from a cache-less solver, computed serially.
	ref := New()
	want := map[[2]int]bool{}
	for i := range pool {
		for j := range pool {
			want[[2]int{i, j}] = ref.Implies(pool[i], pool[j])
		}
	}

	shared := New().EnableEntailmentCache()
	const goroutines = 32
	const perG = 400
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			lr := rand.New(rand.NewSource(seed))
			for n := 0; n < perG; n++ {
				i, j := lr.Intn(len(pool)), lr.Intn(len(pool))
				if got := shared.Implies(pool[i], pool[j]); got != want[[2]int{i, j}] {
					select {
					case errs <- fmt.Errorf("Implies(pool[%d], pool[%d]) = %v under contention, want %v",
						i, j, got, want[[2]int{i, j}]):
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st := shared.StatsSnapshot()
	if st.EntailCacheHits == 0 || st.EntailCacheMisses == 0 {
		t.Fatalf("hammer saw no cache traffic: %+v", st)
	}
	// 32x400 lookups over at most 24x24 distinct keys: hits dominate.
	if st.EntailCacheHits < st.EntailCacheMisses {
		t.Fatalf("expected hit-dominated traffic, got %+v", st)
	}
}
