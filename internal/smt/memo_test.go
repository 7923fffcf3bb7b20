package smt

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
)

// held is the number of results the memo's stripes really hold.
func (c *memo[K, X]) held() (n int64) {
	for i := range c.stripes {
		if t := c.stripes[i].tab.Load(); t != nil {
			for j := range t.slots {
				if t.slots[j].word.Load() != 0 {
					n++
				}
			}
		}
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
		c := memo[key2, int]{max: max}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= keys; i++ {
					k := key2{logic.ID(i), logic.ID(i % 7)}
					if _, _, ok := c.get(0, k); !ok {
						c.put(0, k, 0, i, true)
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
			if _, v, ok := c.get(0, key2{logic.ID(i), logic.ID(i % 7)}); ok && v != i {
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

// TestMemoReadersDuringGrowth: eight readers probe one stripe while two
// writers fill it through several growths. A hit returns what was put
// under its key, never a torn or a neighbour's value, and the bound holds
// exactly.
func TestMemoReadersDuringGrowth(t *testing.T) {
	const max, writers, readers = 3000, 2, 8
	c := memo[key1, logic.ID]{max: max}
	// Keys of one stripe, so that every put lands in the table the
	// readers probe and it grows from minMemoSlots to thousands.
	var keys []key1
	for id := logic.ID(1); len(keys) < max+500; id++ {
		if memoHash(0, key1(id))>>(64-memoStripeBits) == 0 {
			keys = append(keys, key1(id))
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	var hits atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, k := range keys {
					bits, v, ok := c.get(0, k)
					if !ok {
						continue
					}
					hits.Add(1)
					if v != logic.ID(k)*3 || bits != uint32(k)&wordBitsMask {
						t.Errorf("key %d holds bits %d and %d", k, bits, v)
						return
					}
				}
			}
		}()
	}
	var fill sync.WaitGroup
	for w := 0; w < writers; w++ {
		fill.Add(1)
		go func() {
			defer fill.Done()
			for i := w; i < len(keys); i += writers {
				k := keys[i]
				c.put(0, k, uint32(k)&wordBitsMask, logic.ID(k)*3, true)
			}
		}()
	}
	fill.Wait()
	close(done)
	wg.Wait()
	if st := c.stats(); st.Entries != max || c.held() != max || st.TurnedAway != int64(len(keys)-max) {
		t.Fatalf("%d keys into a bound of %d: counted %d, held %d, turned away %d", len(keys), max, st.Entries, c.held(), st.TurnedAway)
	}
	if n := len(c.stripes[0].tab.Load().slots); n < 4*minMemoSlots*16 {
		t.Fatalf("the stripe's table has %d slots: it grew too few times to test growth", n)
	}
	if hits.Load() == 0 {
		t.Fatal("no reader ever hit")
	}
}

// TestMemoSlotsPointerFree: the slots of every memo hold no field of a
// kind that holds a pointer, so the collector never scans a slot array,
// and the bool-valued memos (entailment, one-step) keep nothing out of
// line.
func TestMemoSlotsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: the slot holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	var s Solver
	for name, typ := range map[string]reflect.Type{
		"sat":    reflect.TypeOf(s.sat.memo.stripes[0].tab.Load()).Elem(),
		"cubes":  reflect.TypeOf(s.cubes.memo.stripes[0].tab.Load()).Elem(),
		"entail": reflect.TypeOf(s.entail.stripes[0].tab.Load()).Elem(),
		"steps":  reflect.TypeOf(s.steps.stripes[0].tab.Load()).Elem(),
		"simp":   reflect.TypeOf(s.simp.stripes[0].tab.Load()).Elem(),
	} {
		slots, _ := typ.FieldByName("slots")
		walk(name+".slot", slots.Type.Elem())
		if out, _ := typ.FieldByName("out"); (name == "entail" || name == "steps") && out.Type.Elem().Size() != 0 {
			t.Errorf("the %s memo keeps %v out of line", name, out.Type.Elem())
		}
	}
	if size := reflect.TypeFor[memoSlot[key1]]().Size(); size != 16 {
		t.Errorf("a one-id slot takes %d bytes, want 16", size)
	}
	if size := reflect.TypeFor[memoSlot[key2]]().Size(); size != 24 {
		t.Errorf("a two-id slot takes %d bytes, want 24", size)
	}
}
