package regions

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/smt"
	"repro/internal/summary"
)

func le(name string, k int64) logic.Formula {
	return logic.LEq(logic.LinVar(lang.Var(name)), logic.LinConst(k))
}

func mainProc(t testing.TB, src string) *cfg.Proc {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.MainProc()
}

func mustCheck(t testing.TB, g *Graph) {
	t.Helper()
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

// refKey and refModel are the five per-query maps the table replaced, with
// the replaceRegion that migrated them — kept here, verbatim in its
// semantics but for the inheritance of shut marks, as the reference the
// table is held against. Keys of retired
// regions pile up in it as they did then; only live pairs are compared.
type refKey struct{ edge, from, to int }

type refModel struct {
	elim     map[refKey]bool
	open     map[refKey]int8
	stuck    map[refKey]bool
	pending  map[refKey]*summary.Question
	attempts map[refKey]int
}

func newRefModel() *refModel {
	return &refModel{
		elim:     map[refKey]bool{},
		open:     map[refKey]int8{},
		stuck:    map[refKey]bool{},
		pending:  map[refKey]*summary.Question{},
		attempts: map[refKey]int{},
	}
}

func (m *refModel) replaceRegion(r int, parts []int) {
	migrate := func(old refKey) []refKey {
		if old.from != r && old.to != r {
			return nil
		}
		froms := []int{old.from}
		if old.from == r {
			froms = parts
		}
		tos := []int{old.to}
		if old.to == r {
			tos = parts
		}
		var ks []refKey
		for _, f := range froms {
			for _, t := range tos {
				ks = append(ks, refKey{old.edge, f, t})
			}
		}
		return ks
	}
	for _, flags := range []map[refKey]bool{m.elim, m.stuck} {
		var add []refKey
		for k, v := range flags {
			if v {
				add = append(add, migrate(k)...)
			}
		}
		for _, k := range add {
			flags[k] = true
		}
	}
	addP := map[refKey]*summary.Question{}
	for k, v := range m.pending {
		for _, nk := range migrate(k) {
			addP[nk] = v
		}
	}
	for k, v := range addP {
		m.pending[k] = v
	}
	// The one place the model departs from the five maps, as the table
	// does: a shut mark goes to the parts' edges, an open one does not.
	var addO []refKey
	for k, v := range m.open {
		if v < 0 {
			addO = append(addO, migrate(k)...)
		}
	}
	for _, k := range addO {
		m.open[k] = -1
	}
	addA := map[refKey]int{}
	for k, v := range m.attempts {
		for _, nk := range migrate(k) {
			addA[nk] = v
		}
	}
	for k, v := range addA {
		m.attempts[k] = v
	}
}

// TestTableAgainstFiveMapModel drives the table and the reference model
// through the same random sequence of edge updates and splits — self-loop
// edges, splits into no, one or several parts, splits of parts — and
// compares every live abstract edge, and the table's invariants, after
// every step.
func TestTableAgainstFiveMapModel(t *testing.T) {
	proc := mainProc(t, `globals a; proc main { a = 0; while (a < 3) { a = a + 1; } }`)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(proc, le("a", 0))
		ref := newRefModel()
		var live []*Region
		for n := 0; n < proc.NNodes; n++ {
			live = append(live, g.At(cfg.NodeID(n))...)
		}
		compare := func(step int, what string) {
			t.Helper()
			if err := g.Check(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			for ci := range proc.Edges {
				for _, f := range live {
					for _, to := range live {
						k := refKey{ci, int(f.ID), int(to.ID)}
						var got Edge
						if e := g.edges[ci][pair(f, to)]; e != nil {
							got = *e
						}
						if got.Elim != ref.elim[k] || got.Stuck != ref.stuck[k] || got.Attempts != ref.attempts[k] ||
							got.Pending != ref.pending[k] || got.open != ref.open[k] {
							t.Fatalf("seed %d step %d (%s): edge %v is {elim %v stuck %v attempts %d pending %p open %d}, model has {%v %v %d %p %d}",
								seed, step, what, k, got.Elim, got.Stuck, got.Attempts, got.Pending, got.open,
								ref.elim[k], ref.stuck[k], ref.attempts[k], ref.pending[k], ref.open[k])
						}
					}
				}
			}
		}
		for step := 0; step < 300 && len(live) > 0; step++ {
			ci := rng.Intn(len(proc.Edges))
			from, to := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if rng.Intn(4) == 0 {
				to = from // a self-loop edge
			}
			k := refKey{ci, int(from.ID), int(to.ID)}
			what := ""
			switch op := rng.Intn(8); op {
			case 0:
				what = "elim"
				g.Edge(ci, from, to).Elim = true
				ref.elim[k] = true
			case 1:
				what = "stuck"
				g.Edge(ci, from, to).Stuck = true
				ref.stuck[k] = true
			case 2:
				what = "pending"
				q := &summary.Question{Proc: fmt.Sprint("p", step)}
				g.Edge(ci, from, to).Pending = q
				ref.pending[k] = q
			case 3:
				what = "answered"
				g.Edge(ci, from, to).Pending = nil
				delete(ref.pending, k)
			case 4:
				what = "attempt"
				g.Edge(ci, from, to).Attempts++
				ref.attempts[k]++
			case 5:
				what = "open"
				v := int8(1 - 2*rng.Intn(2))
				g.Edge(ci, from, to).open = v
				ref.open[k] = v
			default:
				what = "split"
				r := from
				var parts []*Region
				var ids []int
				for i, n := 0, rng.Intn(4); i < n; i++ {
					p := g.NewRegion(r.Node, le("a", int64(step*4+i)), r.Target)
					parts = append(parts, p)
					ids = append(ids, int(p.ID))
				}
				g.Split(r, parts...)
				ref.replaceRegion(int(r.ID), ids)
				kept := live[:0]
				for _, x := range live {
					if x != r {
						kept = append(kept, x)
					}
				}
				live = append(kept, parts...)
				if r.Live() {
					t.Fatalf("seed %d step %d: split region still live", seed, step)
				}
			}
			compare(step, what)
		}
	}
}

func TestEdgeOnRetiredRegionPanics(t *testing.T) {
	proc := mainProc(t, `globals a; proc main { a = 1; }`)
	g := New(proc, logic.True)
	r := g.At(proc.Entry)[0]
	g.Split(r, g.NewRegion(r.Node, logic.True, false))
	defer func() {
		if recover() == nil {
			t.Fatal("an edge on a retired region was accepted")
		}
	}()
	g.Edge(0, r, g.At(proc.Exit)[0])
}

// TestEliminateAfterSelfLoopSplit: parts of a region split on its own
// self-loop edge are not marked against the retired destination.
func TestEliminateAfterSelfLoopSplit(t *testing.T) {
	proc := mainProc(t, `globals a; proc main { a = 1; }`)
	g := New(proc, logic.True)
	r := g.At(proc.Entry)[0]
	g.Edge(0, r, r)
	a, b := g.NewRegion(r.Node, le("a", 0), false), g.NewRegion(r.Node, logic.Not(le("a", 0)), false)
	g.Split(r, a, b)
	g.Eliminate(0, []*Region{b}, r)
	mustCheck(t, g)
	if len(g.edges[0]) != 0 {
		t.Fatalf("table holds %d entries after a blank self-loop split", len(g.edges[0]))
	}
	g.Eliminate(0, []*Region{b}, a)
	if !g.Edge(0, b, a).Elim {
		t.Fatal("live destination not marked")
	}
}

func TestFindPathAndSweepPending(t *testing.T) {
	prog, err := parser.Parse(`globals a; proc main { a = 1; work(); } proc work { a = a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	proc := prog.MainProc()
	solver := smt.New()
	m := &punch.Meter{Solver: solver}
	g := New(proc, le("a", 5))
	path := g.FindPath(m, logic.True, true)
	if len(path) != len(proc.Edges) || path[0].From.Node != proc.Entry || !path[len(path)-1].To.Target {
		t.Fatalf("path = %v", path)
	}
	if m.Cost == 0 {
		t.Fatal("search was not charged")
	}
	// A pending call edge is avoided by the actionable search only.
	call := path[len(path)-1]
	call.Pending = &summary.Question{Proc: "work", Pre: logic.True, Post: le("a", 5)}
	if g.FindPath(m, logic.True, true) != nil {
		t.Fatal("actionable path through a pending edge")
	}
	if g.FindPath(m, logic.True, false) == nil {
		t.Fatal("pending edge hidden from the any-path search")
	}
	// The mark survives a sweep until SUMDB can answer the question.
	db := summary.New(solver)
	g.SweepPending(db)
	if call.Pending == nil {
		t.Fatal("unanswered child swept")
	}
	db.Add(summary.Summary{Kind: summary.NotMay, Proc: "work", Pre: logic.True, Post: le("a", 5)})
	g.SweepPending(db)
	if call.Pending != nil {
		t.Fatal("answered child still pending")
	}
	// Eliminating the edge leaves no path at all, forward or backward.
	call.Elim = true
	if g.FindPath(m, logic.True, false) != nil {
		t.Fatal("path through an eliminated edge")
	}
	fwd, bwd := g.Reachable(m, logic.True, false), g.Reachable(m, logic.True, true)
	if !fwd[call.From.ID] || fwd[call.To.ID] || bwd[call.From.ID] || !bwd[call.To.ID] {
		t.Fatalf("reachability across an eliminated edge: fwd=%v bwd=%v", fwd, bwd)
	}
	mustCheck(t, g)
}

// benchGraph is a loop of ten locations with ten interval regions each and
// every abstract edge between neighbouring locations decided: a hundred
// regions, a thousand edges, a few hundred of them eliminated, none
// entering the target — a search has to walk all of it.
func benchGraph(tb testing.TB) (*Graph, *punch.Meter) {
	proc := mainProc(tb, `globals a; proc main {
  a = 0;
  while (a < 9) { a = a + 1; a = a + 1; a = a + 1; a = a + 1; a = a + 1; a = a + 1; a = a + 1; }
}`)
	g := New(proc, le("a", 0))
	for n := 0; n < proc.NNodes; n++ {
		top := g.At(cfg.NodeID(n))[0]
		var parts []*Region
		for i := 0; i < 10; i++ {
			parts = append(parts, g.NewRegion(top.Node, le("a", int64(i)), top.Target))
		}
		g.Split(top, parts...)
	}
	for ci, ce := range proc.Edges {
		for i, f := range g.At(ce.From) {
			for j, to := range g.At(ce.To) {
				e := g.Edge(ci, f, to)
				e.open = 1
				e.Elim = to.Target || (i+j)%3 == 0
			}
		}
	}
	return g, &punch.Meter{Solver: smt.New()}
}

func BenchmarkFindPath(b *testing.B) {
	g, m := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.FindPath(m, logic.True, true) != nil {
			b.Fatal("found a path into an eliminated target")
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := benchGraph(b)
		r := g.At(g.proc.Edges[1].To)[3]
		p, q := g.NewRegion(r.Node, r.F, r.Target), g.NewRegion(r.Node, r.F, r.Target)
		b.StartTimer()
		g.Split(r, p, q)
	}
}
