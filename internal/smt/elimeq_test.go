package smt

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/logic"
)

// satUncachedEliminatingEq is satUncached as it was when every formula
// went through eliminateEq before its cubes were walked: the reference
// the cube path without that pass is held to.
func (s *Solver) satUncachedEliminatingEq(f logic.Formula) Result {
	if logic.Size(f) > maxFormulaSize {
		return Result{Sat: true}
	}
	f = eliminateEq(f)
	switch g := f.(type) {
	case logic.Bool:
		if bool(g) {
			return Result{Sat: true, Model: map[lang.Var]int64{}, Known: true}
		}
		return Result{Known: true}
	}
	var found Result
	unknown := false
	if logic.EachCube(f, s.maxDNF, func(c logic.Cube) bool {
		r := s.satCube(c)
		if r.Sat && r.Known {
			found = r
			return false
		}
		unknown = unknown || !r.Known
		return true
	}) {
		switch {
		case found.Known:
			return found
		case unknown:
			return Result{Sat: true}
		}
		return Result{Known: true}
	}
	return s.satDPLL(f)
}

// TestSatNeedsNoEqElimination holds Sat, whose cube path walks the
// formula as it is, to the reference that rewrote every equality into
// two inequalities first: the same verdict, the same Known and the same
// model on random formulas rich in equalities, some past maxDNF cubes so
// that the DPLL fallback is met too. Each is also asked beside its own
// rewriting as a second disjunct, with maxDNF at the rewriting's cube
// count: the rewriting drops the duplicate disjunct and fits the bound,
// the walk meets both and does not.
func TestSatNeedsNoEqElimination(t *testing.T) {
	same := func(f logic.Formula, maxDNF int) {
		t.Helper()
		s, ref := New(), New()
		s.maxDNF, ref.maxDNF = maxDNF, maxDNF
		got, want := s.Sat(f), ref.satUncachedEliminatingEq(f)
		if got.Sat != want.Sat || got.Known != want.Known || !maps.Equal(got.Model, want.Model) {
			t.Fatalf("%v, maxDNF %d:\n  Sat       = %s\n  reference = %s", f, maxDNF, show(got), show(want))
		}
	}
	l := logic.LinVar("x").Sub(logic.LinVar("y")).AddConst(-3)
	same(logic.Disj(logic.EQ(l), logic.Conj(logic.LE(l), logic.LE(l.Scale(-1)))), 1)

	rng := rand.New(rand.NewSource(51))
	withEq, twins := 0, 0
	for i := range 3000 {
		data := make([]byte, 24+rng.Intn(96))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		f := genFormula(&fuzzSrc{data: data}, 2+i%2)
		if !hasEq(f) {
			continue
		}
		withEq++
		if i%7 == 0 {
			same(f, 2)
		} else {
			same(f, New().maxDNF)
		}
		g := eliminateEq(f)
		n := 0
		if logic.EachCube(g, 64, func(logic.Cube) bool { n++; return true }) && n > 0 {
			twins++
			same(logic.Disj(f, g), n)
		}
	}
	if withEq < 1000 || twins < 500 {
		t.Fatalf("only %d of the formulas hold an equality, %d asked beside their rewriting", withEq, twins)
	}
}

func show(r Result) string { return fmt.Sprintf("{Sat:%v Known:%v Model:%v}", r.Sat, r.Known, r.Model) }

// TestModelSearchGivesUpWide: a cube of more variables than the model
// search assigns is left unknown at once. Before the search checked its
// width up front it tried 2^depth projections first and ran out of
// memory at 65 variables.
func TestModelSearchGivesUpWide(t *testing.T) {
	for _, n := range []int{maxModelDepth, maxModelDepth + 1, 200} {
		atoms := make([]logic.Formula, 0, 2*n)
		for i := range n {
			x := logic.LinVar(lang.Var(fmt.Sprintf("x%03d", i)))
			atoms = append(atoms, logic.LEq(logic.LinConst(2), x), logic.LEq(x, logic.LinConst(2)))
		}
		start := time.Now()
		r := New().Sat(logic.Conj(atoms...))
		took := time.Since(start)
		if want := n <= maxModelDepth; !r.Sat || r.Known != want {
			t.Fatalf("%d pinned variables: Sat %v Known %v, want Sat true Known %v", n, r.Sat, r.Known, want)
		}
		if n <= maxModelDepth && len(r.Model) != n {
			t.Fatalf("%d pinned variables: model %v", n, r.Model)
		}
		if took > time.Second {
			t.Fatalf("%d pinned variables took %v", n, took)
		}
	}
}
