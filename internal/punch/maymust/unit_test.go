package maymust

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
)

func leIC(name string, k int64) logic.Formula {
	return logic.LEq(logic.LinVar(lang.Var(name)), logic.LinConst(k))
}

func TestConjunctiveHull(t *testing.T) {
	a := logic.Conj(leIC("x", 3), leIC("y", 5))
	b := logic.Conj(leIC("x", 3), leIC("z", 9))
	hull := conjunctiveHull([]logic.Formula{a, b})
	if logic.Key(hull) != logic.Key(leIC("x", 3)) {
		t.Fatalf("hull = %v, want x ≤ 3", hull)
	}
	// Disjunctions contribute their own cube sets.
	c := logic.Disj(a, b)
	hull2 := conjunctiveHull([]logic.Formula{c})
	if logic.Key(hull2) != logic.Key(leIC("x", 3)) {
		t.Fatalf("hull of disjunction = %v", hull2)
	}
	// Empty input is ⊤.
	if conjunctiveHull(nil) != logic.Formula(logic.True) {
		t.Fatal("empty hull should be true")
	}
	// Hull over-approximates each input.
	s := smt.New()
	for _, f := range []logic.Formula{a, b, c} {
		if !s.Implies(f, hull) {
			t.Fatalf("hull does not cover %v", f)
		}
	}
}

// engineFor builds a minimal stepper for white-box helper tests.
func stepperFor(t *testing.T, src string) *stepper {
	t.Helper()
	prog := parserMust(t, src)
	solver := smt.New()
	db := summary.New(solver)
	ctx := &punch.Context{Prog: prog, DB: db, Alloc: &query.Allocator{}, ModRef: prog.ModRef()}
	q := ctx.Alloc.New(query.NoParent, summary.Question{Proc: prog.Main, Pre: logic.True, Post: logic.True})
	o := newObj(prog.Proc(prog.Main), prog.Globals, q.ID)
	o.G = regions.New(o.proc, q.Q.Post)
	return &stepper{Stepper: punch.NewStepper(ctx, q, "", nil), a: New(), o: o}
}

// checkGraph fails the test when the region graph's lists mention a
// region that is no longer in a partition (or are otherwise inconsistent);
// call it after every split.
func checkGraph(t *testing.T, g *regions.Graph) {
	t.Helper()
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

// checked runs the analysis and walks the query's region graph after
// every Step (the end-to-end tests cannot get between two splits).
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

func TestFilterRelevant(t *testing.T) {
	st := stepperFor(t, `
globals a, b, c;
proc main { touch(); }
proc touch { a = a + 1; }
`)
	// touch touches only a; postG mentions c; the b conjunct must drop.
	f := logic.Conj(leIC("a", 1), leIC("b", 2), leIC("c", 3))
	got := st.filterRelevant(f, "touch", leIC("c", 0))
	if logic.Key(got) != logic.Key(logic.Conj(leIC("a", 1), leIC("c", 3))) {
		t.Fatalf("filtered = %v", got)
	}
}

func TestPartitionOnKeepsRegionsConjunctive(t *testing.T) {
	st := stepperFor(t, `globals a; proc main { a = 1; }`)
	node := st.o.proc.Entry
	r := st.o.G.At(node)[0]
	// Split ⊤ on (a ≤ 3 ∧ a ≥ 0): outside = ¬(…) = two cubes.
	wp := logic.Conj(leIC("a", 3), logic.LEq(logic.LinConst(0), logic.LinVar("a")))
	ins, outs := st.o.G.PartitionOn(&st.Meter, r, wp)
	checkGraph(t, st.o.G)
	if len(ins) != 1 {
		t.Fatalf("ins = %d", len(ins))
	}
	if len(outs) != 2 {
		t.Fatalf("outs = %d", len(outs))
	}
	for _, part := range append(ins, outs...) {
		if _, isOr := part.F.(logic.Or); isOr {
			t.Fatalf("non-conjunctive region %v", part.F)
		}
	}
	// The retired region must be gone from the partition.
	for _, x := range st.o.G.At(node) {
		if x == r {
			t.Fatal("retired region still attached")
		}
	}
	if r.Live() {
		t.Fatal("retired region still live")
	}
}

// TestReplaceRegionMigratesBookkeeping: what the frontier machinery recorded on
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
	g := regions.New(proc, leIC("a", 5))
	r, hit, miss := g.At(proc.Entry)[0], g.At(proc.Exit)[0], g.At(proc.Exit)[1]
	loop, out := g.Edge(0, r, r), g.Edge(1, r, hit)
	g.SetStuck(loop)
	for range 3 {
		g.Attempt(loop)
	}
	q := &summary.Question{Proc: "p", Pre: leIC("a", 7), Post: logic.True}
	g.SetPending(out, q)
	g.Kill(g.Edge(1, r, miss))

	parts := []*regions.Region{g.NewRegion(r.Node, leIC("a", 0), true), g.NewRegion(r.Node, logic.Not(leIC("a", 0)), true)}
	g.Split(r, parts...)
	checkGraph(t, g)
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
	checkGraph(t, g)
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

func TestMustElemDedup(t *testing.T) {
	st := stepperFor(t, `globals a; proc main { a = 1; }`)
	o := st.o
	store := map[lang.Var]logic.Lin{"a": logic.LinVar("$s")}
	e1 := &mustElem{path: logic.True, store: store}
	e2 := &mustElem{path: logic.True, store: store}
	if !o.addMust(0, e1, 10) {
		t.Fatal("first add refused")
	}
	if o.addMust(0, e2, 10) {
		t.Fatal("duplicate accepted")
	}
	if len(o.musts[0]) != 1 {
		t.Fatalf("musts = %d", len(o.musts[0]))
	}
	// Cap respected.
	if o.addMust(0, &mustElem{path: leIC("a", 1), store: store}, 1) {
		t.Fatal("cap exceeded")
	}
}

func parserMust(t *testing.T, src string) *cfg.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPartitionPreservesUnion: splitting a region must cover exactly the
// same state set (the may-map stays an over-approximation, no states are
// lost or invented).
func TestPartitionPreservesUnion(t *testing.T) {
	st := stepperFor(t, `globals a, b; proc main { a = 1; }`)
	node := st.o.proc.Entry
	base := logic.Conj(leIC("a", 10), logic.LEq(logic.LinConst(-10), logic.LinVar("a")))
	r := st.o.G.NewRegion(node, base, false)
	st.o.G.Split(st.o.G.At(node)[0], r)
	wp := logic.Disj(leIC("a", -2), logic.Conj(leIC("b", 0), leIC("a", 5)))
	ins, outs := st.o.G.PartitionOn(&st.Meter, r, wp)
	checkGraph(t, st.o.G)
	var parts []logic.Formula
	for _, p := range append(append([]*regions.Region{}, ins...), outs...) {
		parts = append(parts, p.F)
	}
	union := logic.Disj(parts...)
	if !st.Solver.Implies(union, base) || !st.Solver.Implies(base, union) {
		t.Fatalf("partition changed the region:\n base=%v\n union=%v", base, union)
	}
	// ins must lie inside wp, outs outside it.
	for _, p := range ins {
		if !st.Solver.Implies(p.F, wp) {
			t.Errorf("in-part %v not within wp", p.F)
		}
	}
	for _, p := range outs {
		if !st.Solver.Implies(p.F, logic.Not(wp)) {
			t.Errorf("out-part %v intersects wp", p.F)
		}
	}
}
