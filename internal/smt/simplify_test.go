package smt

import (
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
)

// referenceSimplifyCube is Simplify's filter on a conjunction of ≤-atoms
// as it was written before cubes were decided in the cube kernel: the
// greedy deletion filter over formulas, scanning from the back, an atom
// dropped when Implies proves the conjunction of the others entails it.
// It is the executable specification simplifyCube must match node for
// node.
func referenceSimplifyCube(s *Solver, f logic.Formula) logic.Formula {
	and, ok := f.(logic.And)
	if !ok || len(and.Fs) > maxSimplifyParts {
		return f
	}
	kept := slices.Clone(and.Fs)
	for i := len(kept) - 1; i >= 0 && len(kept) > 1; i-- {
		rest := slices.Concat(kept[:i], kept[i+1:])
		if s.Implies(logic.Conj(rest...), kept[i]) {
			kept = rest
		}
	}
	return logic.Conj(kept...)
}

// genCube decodes a conjunction of up to maxSimplifyParts ≤-atoms over
// four variables. Coefficients in [-4, 4] make LE divide by a gcd (2x +
// 4y ≤ 3 is kept as x + 2y ≤ 1); an atom may repeat an earlier term with
// another constant, repeat an earlier atom outright, or negate one, which
// makes the cube contradictory.
func genCube(src *fuzzSrc) logic.Formula {
	n := int(src.next()) % (maxSimplifyParts + 1)
	var atoms []logic.Formula
	var terms []logic.Lin
	for len(atoms) < n {
		var l logic.Lin
		switch op := src.next() % 8; {
		case op == 0 && len(terms) > 0:
			l = terms[int(src.next())%len(terms)].AddConst(int64(src.next()%7) - 3)
		case op == 1 && len(terms) > 0:
			l = terms[int(src.next())%len(terms)]
		case op == 2 && len(terms) > 0:
			l = logic.LinConst(1).Sub(terms[int(src.next())%len(terms)])
		default:
			l = logic.LinConst(int64(src.next()%13) - 6)
			for _, name := range []lang.Var{"w", "x", "y", "z"} {
				if c := int64(src.next()%9) - 4; c != 0 && src.next()%2 == 0 {
					l = l.Add(logic.LinVar(name).Scale(c))
				}
			}
		}
		if l.IsConst() {
			continue
		}
		terms = append(terms, l)
		atoms = append(atoms, logic.LE(l))
	}
	return logic.Conj(atoms...)
}

// FuzzSimplifyAgainstReference holds simplifyCube to the formula-level
// filter it replaced: on every cube, with the entailment cache on (as in
// a run: the subsumption rule goes first) and off, Simplify returns the
// node the reference returns.
func FuzzSimplifyAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 10, 1, 4, 0, 0, 0, 0, 0, 0, 3, 6, 1, 5, 0, 0, 0, 0, 0, 0, 3, 12, 1, 4, 1, 4})
	f.Add([]byte{48, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{6, 3, 9, 1, 6, 0, 0, 1, 2, 0, 0, 0, 0, 3, 1, 1, 0, 1, 0, 2, 1, 2, 0, 0, 3, 4})
	f.Add([]byte{20, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // 48 atoms read fewer bytes
		}
		cube := genCube(&fuzzSrc{data: data})
		for _, cached := range []bool{true, false} {
			s, ref := New(), New()
			if cached {
				s.EnableEntailmentCache()
				ref.EnableEntailmentCache()
			}
			got, want := s.Simplify(cube), referenceSimplifyCube(ref, cube)
			if logic.KeyID(got) != logic.KeyID(want) {
				t.Fatalf("entailment cache %v: Simplify(%v)\n = %v\n reference %v", cached, cube, got, want)
			}
		}
	})
}

// overlappingCubes are cubes over three variables that share most of
// their atoms, so concurrent simplifications race on the same memo keys
// and on the same nodes of the intern table.
func overlappingCubes() []logic.Formula {
	x, y, z := v("x"), v("y"), v("z")
	base := []logic.Formula{le(x, k(5)), le(k(0), x), le(y, x), le(x.Add(y), k(9)), le(z, y.AddConst(2))}
	var out []logic.Formula
	for i := 0; i < 32; i++ {
		extra := []logic.Formula{le(x, k(int64(3+i%7))), le(y.Sub(z), k(int64(i%5))), le(x.Add(z), k(int64(8+i%4)))}
		out = append(out, logic.Conj(slices.Concat(base[i%3:], extra[:1+i%3])...))
	}
	return out
}

// TestSimplifyConcurrentCubes: one solver, as a run shares it, simplifies
// overlapping cubes from eight goroutines at once; every result equals
// the one a solver alone computes. Under -race (make race) it is the
// concurrency test of the cube path and of the pooled scratch it uses.
func TestSimplifyConcurrentCubes(t *testing.T) {
	cubes := overlappingCubes()
	alone := New().EnableEntailmentCache()
	want := make([]logic.ID, len(cubes))
	for i, c := range cubes {
		want[i] = logic.KeyID(alone.Simplify(c))
	}
	shared := New().EnableEntailmentCache()
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(cubes))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range cubes {
				i := (j*5 + w*3) % len(cubes)
				if got := shared.Simplify(cubes[i]); logic.KeyID(got) != want[i] {
					errs <- got.String()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("a concurrent Simplify differs from the sequential one: %s", e)
	}
}

// TestSolverAllocPin: an Implies miss that the subsumption rule settles
// allocates nothing, nor does simplifying a cube whose result node
// exists (scratch pool warm). The entailment memo is kept full so every
// Implies misses; the Simplify memo is off so every call filters.
func TestSolverAllocPin(t *testing.T) {
	x, y := v("x"), v("y")
	s := New().EnableEntailmentCache()
	s.entail.max = 0
	a, b := logic.Conj(le(x, k(2)), le(k(0), y), le(y, x)), le(x, k(5))
	if !s.Implies(a, b) || s.StatsSnapshot().EntailSynHits != 1 {
		t.Fatalf("Implies(%v, %v) was not settled by the subsumption rule: %+v", a, b, s.StatsSnapshot())
	}
	if n := testing.AllocsPerRun(100, func() { s.Implies(a, b) }); n != 0 {
		t.Errorf("an Implies miss settled by the subsumption rule allocates %.1f times, want 0", n)
	}
	// A memo hit allocates nothing: Sat, one-step feasibility, Simplify
	// and Implies asked again.
	hit := New().EnableEntailmentCache()
	var step lang.Stmt = lang.Assign{Lhs: "x", Rhs: lang.Add{X: lang.V("y"), Y: lang.C(1)}}
	modelled := logic.Conj(le(x, k(5)), le(k(0), x))
	if r := hit.Sat(modelled); r.Model == nil {
		t.Fatalf("Sat(%v) found no model", modelled)
	}
	hit.StepFeasible(1, step, a, b)
	hit.Simplify(a)
	hit.Implies(b, a)
	for name, ask := range map[string]func(){
		"Sat":          func() { hit.Sat(modelled) },
		"StepFeasible": func() { hit.StepFeasible(1, step, a, b) },
		"Simplify":     func() { hit.Simplify(a) },
		"Implies":      func() { hit.Implies(b, a) },
	} {
		if n := testing.AllocsPerRun(100, ask); n != 0 {
			t.Errorf("a %s memo hit allocates %.1f times, want 0", name, n)
		}
	}
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	s.DisableStepMemos()
	cube := logic.Conj(le(x, k(5)), le(k(0), x), le(y, x), le(x.Add(y), k(12)), le(y, k(9)))
	if got := s.Simplify(cube); logic.Size(got) >= logic.Size(cube) {
		t.Fatalf("Simplify(%v) dropped nothing", cube)
	}
	if n := testing.AllocsPerRun(100, func() { s.Simplify(cube) }); n != 0 {
		t.Errorf("simplifying a cube allocates %.1f times, want 0", n)
	}
}

// raceEnabled reports a test binary built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
