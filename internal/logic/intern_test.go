package logic

import (
	"sync"
	"testing"

	"repro/internal/lang"
)

func internVar(name string) Lin { return LinVar(lang.Var(name)) }

// buildNested constructs a moderately deep formula parameterized by seed
// so concurrent builders overlap on shared subterms.
func buildNested(seed int64) Formula {
	x, y := internVar("x"), internVar("y")
	var fs []Formula
	for i := int64(0); i < 4; i++ {
		fs = append(fs, Disj(
			LEq(x, LinConst(seed+i)),
			Conj(LEq(LinConst(-seed-i), y), LEq(y.Add(x.Scale(2)), LinConst(i))),
		))
	}
	return Conj(fs...)
}

// Structural equality must collapse to key equality: the same formula
// built twice — separate allocations, same shape — interns to the same
// id, and the second build is served from the table (hits advance).
func TestInternSameStructureSameKey(t *testing.T) {
	h0, _ := InternStats()
	a := buildNested(7)
	b := buildNested(7)
	if Key(a) != Key(b) {
		t.Fatalf("same structure, different keys: %q vs %q", Key(a), Key(b))
	}
	if id := KeyID(a); id == 0 {
		t.Fatal("nested formula fell off the intern table")
	}
	if KeyID(a) != KeyID(b) {
		t.Fatalf("same structure, different ids: %d vs %d", KeyID(a), KeyID(b))
	}
	if h1, _ := InternStats(); h1 <= h0 {
		t.Fatal("second build did not hit the intern table")
	}
}

// Distinct formulas must get distinct keys — including Bool constants
// versus composite nodes (reserved ids) and atoms differing only in the
// Eq flag or a constant.
func TestInternDistinctFormulasDistinctKeys(t *testing.T) {
	x := internVar("x")
	fs := []Formula{
		Bool(true), Bool(false),
		LE(x.Sub(LinConst(3))), EQ(x.Sub(LinConst(3))),
		LE(x.Sub(LinConst(4))),
		Conj(LE(x.Sub(LinConst(3))), LE(LinConst(1).Sub(x))),
		Disj(LE(x.Sub(LinConst(3))), LE(LinConst(1).Sub(x))),
		buildNested(7), buildNested(8),
	}
	seen := map[string]Formula{}
	for _, f := range fs {
		k := Key(f)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision %q between %v and %v", k, prev, f)
		}
		seen[k] = f
	}
}

// Renaming an atom's variable must re-intern: the renamed atom's key has
// to match a freshly built atom over the new variable, never the
// original's.
func TestInternRenameReinterns(t *testing.T) {
	a := LE(internVar("x").Sub(LinConst(5)))
	r := Rename(a, map[lang.Var]lang.Var{"x": "y"})
	want := LE(internVar("y").Sub(LinConst(5)))
	if Key(r) != Key(want) {
		t.Fatalf("renamed key %q, want %q", Key(r), Key(want))
	}
	if Key(r) == Key(a) {
		t.Fatal("renamed atom kept the original key")
	}
}

// Concurrent construction of overlapping formulas must agree on ids —
// this is the -race coverage for the sharded intern table under
// concurrent PUNCH instances.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	keys := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				keys[w] = append(keys[w], Key(buildNested(int64(i%10))))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range keys[w] {
			if keys[w][i] != keys[0][i] {
				t.Fatalf("worker %d key[%d] = %q, worker 0 = %q", w, i, keys[w][i], keys[0][i])
			}
		}
	}
}

// BenchmarkHashConsKey: key construction on an interned formula (an id
// format) versus the structural string render it replaced.
func BenchmarkHashConsKey(b *testing.B) {
	f := buildNested(7)
	b.Run("Key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Key(f)
		}
	})
	b.Run("String", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.String()
		}
	})
}

// BenchmarkInternConstruct: formula construction cost with the intern
// table on the path (every LE/Conj/Disj pays a table probe).
func BenchmarkInternConstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = buildNested(int64(i % 16))
	}
}

// Duplicate children are dropped, first occurrence kept, on both sides of
// the width at which the builder's id set switches from a scan to a map.
func TestConjDedupAcrossSetSizes(t *testing.T) {
	x := internVar("x")
	for _, n := range []int{3, idSetLinear, idSetLinear + 1, 3 * idSetLinear} {
		var fs, uniq []Formula
		for i := 0; i < n; i++ {
			a := LEq(x, LinConst(int64(i)))
			uniq = append(uniq, a)
			fs = append(fs, a, LEq(x, LinConst(int64(i/2))))
		}
		for name, got := range map[string]Formula{"Conj": Conj(fs...), "Disj": Disj(fs...)} {
			var kids []Formula
			switch g := got.(type) {
			case And:
				kids = g.Fs
			case Or:
				kids = g.Fs
			}
			if len(kids) != n {
				t.Fatalf("%s of %d distinct atoms (each twice) has %d children", name, n, len(kids))
			}
			for i, k := range kids {
				if Key(k) != Key(uniq[i]) {
					t.Fatalf("%s child %d = %v, want %v", name, i, k, uniq[i])
				}
			}
		}
	}
}

var conjSink Formula

// BenchmarkConjSmall: the conjunctions PUNCH builds all day — two to four
// children, one of them often a conjunction itself. The three allocations
// per call are the child slice, the id slice and the node; a dedup map
// would show as more, which the allocation check below turns into a
// failure.
func BenchmarkConjSmall(b *testing.B) {
	x, y := internVar("x"), internVar("y")
	region := Conj(LEq(x, LinConst(4)), LEq(LinConst(0), x))
	wp := LEq(y.Add(x), LinConst(9))
	pre := LEq(LinConst(1), y)
	build := func() { conjSink = Conj(region, wp, pre, wp) }
	if a := testing.AllocsPerRun(100, build); a > 3 {
		b.Fatalf("Conj of four small children allocates %.0f times, want at most 3 (no map)", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}
