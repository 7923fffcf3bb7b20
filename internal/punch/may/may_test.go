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
	if o, ok := res.Self.Obj.(*obj); ok && o.G != nil {
		if err := o.G.Check(); err != nil {
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
// a region's edges through the graph's accessors — stuck, tried, waiting
// for a child — reaches the edges of every part a split leaves behind, a
// self-loop's every pair of parts, and an eliminated edge stays dead for
// every part. Only the exported accessors are read: a stuck edge stays
// blocked after the sweep, a waiting one is unblocked by it, Attempt's
// return shows the inherited count, and the sweep asks each part's
// question and no question of the retired region.
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
	g.SetStuck(loop)
	for range 3 {
		g.Attempt(loop)
	}
	q := &summary.Question{Proc: "p", Pre: le("a", 7), Post: logic.True}
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
			if e := g.Edge(0, part, to); e == 0 || !g.Blocked(e) {
				t.Errorf("R%d→R%d did not inherit the self-loop's stuck mark: edge %d", part.ID, to.ID, e)
			}
		}
		if e := g.Edge(1, part, hit); e == 0 || !g.Blocked(e) {
			t.Errorf("R%d→R%d did not inherit the outstanding child: edge %d", part.ID, hit.ID, e)
		}
		if e := g.Edge(1, part, miss); e != 0 {
			t.Errorf("eliminated edge is live for part R%d: %v", part.ID, g.Step(e))
		}
	}
	// Answering every child finds them all among the questions, and
	// nothing else: the retired edge's question went with its region.
	db := &askedDB{DB: summary.New(smt.New())}
	db.Add(summary.Summary{Kind: summary.NotMay, Proc: "p", Pre: logic.True, Post: logic.True})
	g.SweepPending(db)
	if len(db.asked) != len(parts) {
		t.Errorf("the sweep asked %d questions, want one per part (%d): %v", len(db.asked), len(parts), db.asked)
	}
	for _, a := range db.asked {
		if a.Proc != q.Proc || logic.Key(a.Pre) != logic.Key(q.Pre) || logic.Key(a.Post) != logic.Key(q.Post) {
			t.Errorf("the sweep asked %v, not the inherited %v", a, *q)
		}
	}
	for _, part := range parts {
		if e := g.Edge(1, part, hit); g.Blocked(e) || g.Attempt(e) != 1 {
			t.Errorf("R%d→R%d is still blocked after its child was answered, or inherited attempts: %v", part.ID, hit.ID, g.Step(e))
		}
		for _, to := range parts {
			if e := g.Edge(0, part, to); !g.Blocked(e) || g.Attempt(e) != 4 {
				t.Errorf("R%d→R%d lost its stuck mark or did not inherit 3 attempts: %v", part.ID, to.ID, g.Step(e))
			}
		}
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

// askedDB is a SUMDB that remembers every question it was asked.
type askedDB struct {
	*summary.DB
	asked []summary.Question
}

func (db *askedDB) Answer(q summary.Question) (summary.Summary, int) {
	db.asked = append(db.asked, q)
	return db.DB.Answer(q)
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
