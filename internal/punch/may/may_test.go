package may

import (
	"os"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
)

// checked runs the analysis and, after every Step, walks the query's
// region graph: no list may mention a region that a split retired.
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
// a region's edges — stuck, tried, waiting for a child — reaches the edges
// of every part a split leaves behind, a self-loop's every pair of parts,
// and a refuted edge stays dead for every part.
func TestReplaceRegionMigratesBookkeeping(t *testing.T) {
	// n0 ─havoc a─▶ n0 (CFG edge 0, a self-loop), n0 ─a=1─▶ n1 (edge 1).
	b := cfg.NewProc("main")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), b.Entry(), lang.Havoc{V: "a"})
	b.AddEdge(b.Entry(), exit, lang.Assign{Lhs: "a", Rhs: lang.C(1)})
	proc := cfg.MustProgram("p", []lang.Var{"a"}, "main", b.Finish(exit)).Proc("main")
	g := regions.New(proc, le("a", 5))
	r, hit, miss := g.At(proc.Entry)[0], g.At(proc.Exit)[0], g.At(proc.Exit)[1]
	loop, out := g.Edge(0, r, r), g.Edge(1, r, hit)
	loop.Stuck, loop.Attempts = true, 3
	q := &summary.Question{Proc: "p", Pre: logic.True, Post: logic.True}
	g.SetPending(out, q)
	g.Kill(g.Edge(1, r, miss))

	parts := []*regions.Region{g.NewRegion(r.Node, le("a", 0), true), g.NewRegion(r.Node, logic.Not(le("a", 0)), true)}
	g.Split(r, parts...)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		if !part.Target {
			t.Errorf("target flag lost on R%d", part.ID)
		}
		for _, to := range parts {
			if e := g.Edge(0, part, to); e == nil || !e.Stuck || e.Attempts != 3 {
				t.Errorf("R%d→R%d did not inherit stuck and 3 attempts from the self-loop: %+v", part.ID, to.ID, e)
			}
		}
		if e := g.Edge(1, part, hit); e == nil || e.Pending != q || e.Stuck || e.Attempts != 0 {
			t.Errorf("R%d→R%d did not inherit the outstanding child (and nothing else): %+v", part.ID, hit.ID, e)
		}
		if e := g.Edge(1, part, miss); e != nil {
			t.Errorf("eliminated edge is live for part R%d: %+v", part.ID, e)
		}
	}
	// Answering every child finds them all on the pending list.
	db := summary.New(smt.New())
	db.Add(summary.Summary{Kind: summary.NotMay, Proc: "p", Pre: logic.True, Post: logic.True})
	g.SweepPending(db)
	for _, part := range parts {
		if g.Edge(1, part, hit).Pending != nil {
			t.Errorf("answered child still pending on R%d", part.ID)
		}
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func le(name string, k int64) logic.Formula {
	return logic.LEq(logic.LinVar(lang.Var(name)), logic.LinConst(k))
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
