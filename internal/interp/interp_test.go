package interp

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
)

// buildCounter builds: main { i = 0; while (i < n) i++ ; g = i }.
func buildCounter(n int64) *cfg.Program {
	b := cfg.NewProc("main", "i")
	head := b.NewNode()
	body := b.NewNode()
	after := b.NewNode()
	exit := b.NewNode()
	b.AddEdge(b.Entry(), head, lang.Assign{Lhs: "i", Rhs: lang.C(0)})
	b.AddEdge(head, body, lang.Assume{Cond: lang.CmpE(lang.V("i"), lang.Lt, lang.C(n))})
	b.AddEdge(body, head, lang.Assign{Lhs: "i", Rhs: lang.Add{X: lang.V("i"), Y: lang.C(1)}})
	b.AddEdge(head, after, lang.Assume{Cond: lang.CmpE(lang.V("i"), lang.Ge, lang.C(n))})
	b.AddEdge(after, exit, lang.Assign{Lhs: "g", Rhs: lang.V("i")})
	return cfg.MustProgram("t", []lang.Var{"g"}, "main", b.Finish(exit))
}

func TestRunCounter(t *testing.T) {
	res := Run(buildCounter(7), Options{})
	if !res.Completed || res.Final["g"] != 7 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	res := Run(buildCounter(1000000), Options{MaxSteps: 100})
	if res.Completed {
		t.Fatal("completed despite budget")
	}
	if res.Steps != 100 {
		t.Fatalf("Steps = %d", res.Steps)
	}
}

func TestRunProcFromState(t *testing.T) {
	// proc bump { g = g + 1 } run from g=41.
	b := cfg.NewProc("bump")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), exit, lang.Assign{Lhs: "g", Rhs: lang.Add{X: lang.V("g"), Y: lang.C(1)}})
	prog := cfg.MustProgram("t", []lang.Var{"g"}, "bump", b.Finish(exit))
	res := RunProc(prog, "bump", State{"g": 41}, Options{})
	if !res.Completed || res.Final["g"] != 42 {
		t.Fatalf("res = %+v", res)
	}
}

func TestHavocSequenceWraps(t *testing.T) {
	// main { havoc g; havoc h; } with values [3] — both get 3 (wrap).
	b := cfg.NewProc("main")
	mid := b.NewNode()
	exit := b.NewNode()
	b.AddEdge(b.Entry(), mid, lang.Havoc{V: "g"})
	b.AddEdge(mid, exit, lang.Havoc{V: "h"})
	prog := cfg.MustProgram("t", []lang.Var{"g", "h"}, "main", b.Finish(exit))
	res := Run(prog, Options{HavocValues: []int64{3}})
	if res.Final["g"] != 3 || res.Final["h"] != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRandomHavocWithinRange(t *testing.T) {
	b := cfg.NewProc("main")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), exit, lang.Havoc{V: "g"})
	prog := cfg.MustProgram("t", []lang.Var{"g"}, "main", b.Finish(exit))
	for seed := int64(0); seed < 50; seed++ {
		res := Run(prog, Options{Rand: rand.New(rand.NewSource(seed)), HavocRange: 5})
		if v := res.Final["g"]; v < -5 || v > 5 {
			t.Fatalf("havoc %d outside range", v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := State{"a": 1}
	c := s.Clone()
	c["a"] = 2
	if s["a"] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestEvalHelpers(t *testing.T) {
	st := State{"x": 3, "y": -2}
	if evalInt(lang.Mul{K: 2, X: lang.Add{X: lang.V("x"), Y: lang.V("y")}}, st) != 2 {
		t.Fatal("EvalInt")
	}
	if !evalBool(lang.CmpE(lang.V("x"), lang.Ne, lang.V("y")), st) {
		t.Fatal("EvalBool")
	}
}
