package maymust

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

// TestToyEndToEnd drives the analysis on the paper's toy program (§2.1,
// modular rendering); set MAYMUST_DEBUG=1 for a decision trace.
func TestToyEndToEnd(t *testing.T) {
	src := `
program toy;
globals rfoo, rbar, rbaz, p;

proc main {
  foo();
  bar();
  p = 0 - 12;
  baz();
  assert(rfoo > -5);
  assert(rbar > -5);
  assert(rbaz > -6);
}

proc foo {
  havoc rfoo;
  assume(rfoo >= -4);
}

proc bar {
  havoc rbar;
  assume(rbar >= -4);
}

proc baz {
  havoc rbaz;
  assume(rbaz >= p + 7);
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	if os.Getenv("MAYMUST_DEBUG") != "" {
		a.Debug = os.Stderr
	}
	eng := core.New(prog, core.Options{Punch: checked{a, t}, MaxThreads: 1, MaxIterations: 100, CheckContract: true})
	res := eng.Run(core.AssertionQuestion(prog))
	if res.Verdict != core.Safe {
		t.Fatalf("verdict: %v, queries: %d", res.Verdict, res.TotalQueries)
	}
}

// TestBugEndToEnd exercises the Reachable path in-package.
func TestBugEndToEnd(t *testing.T) {
	prog := parser.MustParse(`
globals g;
proc main {
  g = 0;
  kick();
  assert(g <= 0);
}
proc kick { g = g + 1; }`)
	eng := core.New(prog, core.Options{Punch: checked{New(), t}, MaxThreads: 2, MaxIterations: 2000, CheckContract: true})
	res := eng.Run(core.AssertionQuestion(prog))
	if res.Verdict != core.ErrorReachable {
		t.Fatalf("verdict: %v", res.Verdict)
	}
}

// TestPreemptionBudget: a tiny budget forces Ready preemption (the §3.2
// fairness path) without breaking the verdict.
func TestPreemptionBudget(t *testing.T) {
	prog := parser.MustParse(`
proc main {
  locals i;
  i = 0;
  while (i < 4) { i = i + 1; }
  assert(i == 4);
}`)
	a := New()
	a.Budget = 40 // far below one full analysis
	eng := core.New(prog, core.Options{Punch: checked{a, t}, MaxThreads: 1, MaxIterations: 8000, CheckContract: true})
	res := eng.Run(core.AssertionQuestion(prog))
	if res.Verdict != core.Safe {
		t.Fatalf("verdict: %v after %d iterations", res.Verdict, res.Iterations)
	}
	if res.Iterations < 5 {
		t.Errorf("expected many preempted steps, got %d iterations", res.Iterations)
	}
}
