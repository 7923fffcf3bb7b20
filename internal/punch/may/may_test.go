package may

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
	"repro/internal/summary"
)

// checked runs the analysis and, after every Step, walks the query's
// region graph: no table entry may mention a region that a split retired.
type checked struct {
	*Analysis
	t *testing.T
}

func (c checked) Step(ctx *punch.Context, q *query.Query) punch.Result {
	res := c.Analysis.Step(ctx, q)
	if o, ok := res.Self.Obj.(*obj); ok && o.g != nil {
		if err := o.g.Check(); err != nil {
			c.t.Errorf("Q%d %s: %v", q.ID, q.Q.Proc, err)
		}
	}
	return res
}

func runMay(t *testing.T, src string, iters int) core.Result {
	t.Helper()
	prog := parser.MustParse(src)
	a := New()
	if os.Getenv("MAY_DEBUG") != "" {
		a.Debug = os.Stderr
	}
	eng := core.New(prog, core.Options{Punch: checked{a, t}, MaxThreads: 2, MaxIterations: iters, CheckContract: true})
	return eng.Run(core.AssertionQuestion(prog))
}

// TestReplaceRegionMigratesBookkeeping: what the backward walk recorded on
// a region's edges — refuted, stuck, tried, waiting for a child — carries
// over to the parts a split leaves behind.
func TestReplaceRegionMigratesBookkeeping(t *testing.T) {
	prog := parser.MustParse(`globals a; proc main { a = 1; }`)
	proc := prog.MainProc()
	g := regions.New(proc, logic.True)
	r, other := g.At(proc.Entry)[0], g.At(proc.Exit)[0]
	out := g.Edge(0, r, other)
	out.Elim, out.Attempts = true, 3
	out.Pending = &summary.Question{Proc: "p", Pre: logic.True, Post: logic.True}
	g.Edge(1, other, r).Stuck = true

	le0 := logic.LEq(logic.LinVar(lang.Var("a")), logic.LinConst(0))
	a, b := g.NewRegion(r.Node, le0, true), g.NewRegion(r.Node, logic.Not(le0), true)
	g.Split(r, a, b)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	for _, part := range []*regions.Region{a, b} {
		e := g.Edge(0, part, other)
		if !e.Elim || e.Attempts != 3 || e.Pending != out.Pending {
			t.Errorf("edge %v did not inherit from %v: %+v", e, out, *e)
		}
		if !g.Edge(1, other, part).Stuck {
			t.Errorf("stuck not migrated to R%d", part.ID)
		}
	}
}

func TestMaySafeStraightLine(t *testing.T) {
	res := runMay(t, `proc main { locals x; x = 1; assert(x > 0); }`, 400)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestMayBuggyStraightLine(t *testing.T) {
	res := runMay(t, `proc main { locals x; x = 1; assert(x > 5); }`, 400)
	if res.Verdict != core.ErrorReachable {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestMayBranchSafe(t *testing.T) {
	res := runMay(t, `
proc main {
  locals x, y;
  havoc x;
  if (x > 0) { y = x; } else { y = 0 - x; }
  assert(y >= 0);
}`, 400)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestMayCallSafe(t *testing.T) {
	res := runMay(t, `
globals g;
proc main {
  g = 5;
  bump();
  assert(g >= 6);
}
proc bump { g = g + 1; }`, 800)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict = %v (%+v)", res.Verdict, res)
	}
}

func TestMayCallBuggy(t *testing.T) {
	res := runMay(t, `
globals g;
proc main {
  g = 5;
  bump();
  assert(g >= 7);
}
proc bump { g = g + 1; }`, 800)
	if res.Verdict != core.ErrorReachable {
		t.Fatalf("verdict = %v (%+v)", res.Verdict, res)
	}
}

// TestMayLoopSoundness: without interpolant-guided predicate selection a
// pure may-analysis is not guaranteed to converge on loops (the paper's
// §4 notes may-analyses may be preempted indefinitely); the requirement
// is that it never returns a wrong verdict within its budget.
func TestMayLoopSoundness(t *testing.T) {
	res := runMay(t, `
proc main {
  locals i;
  i = 0;
  while (i < 5) { i = i + 1; }
  assert(i >= 5);
}`, 40)
	if res.Verdict == core.ErrorReachable {
		t.Fatalf("unsound verdict on a safe loop: %v", res.Verdict)
	}
}

func TestMayLoopBuggy(t *testing.T) {
	// Bug finding in loops works: the confirmed-path machinery unrolls.
	res := runMay(t, `
proc main {
  locals i;
  i = 0;
  while (i < 3) { i = i + 1; }
  assert(i >= 4);
}`, 400)
	if res.Verdict != core.ErrorReachable {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}
