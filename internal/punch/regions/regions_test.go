package regions

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	return prog.Proc(prog.Main)
}

func mustCheck(t testing.TB, g *Graph) {
	t.Helper()
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

// loopProc is a procedure with every shape of CFG edge the graph links
// differently: two parallel edges between one pair of locations, two
// self-loops on one location, a call, and a straight run to exit.
//
//	n0 ─a=0─▶ n2, n0 ─havoc a─▶ n2, n2 ─a=a+1─▶ n2, n2 ─assume(a<3)─▶ n2,
//	n2 ─call work─▶ n3, n3 ─assume(!(a<3))─▶ n1
func loopProc(t testing.TB) *cfg.Proc {
	t.Helper()
	lt3 := lang.CmpE(lang.V("a"), lang.Lt, lang.C(3))
	b := cfg.NewProc("main")
	loop, after := b.NewNode(), b.NewNode()
	exit := b.NewNode()
	b.AddEdge(b.Entry(), loop, lang.Assign{Lhs: "a", Rhs: lang.C(0)})
	b.AddEdge(b.Entry(), loop, lang.Havoc{V: "a"})
	b.AddEdge(loop, loop, lang.Assign{Lhs: "a", Rhs: lang.Add{X: lang.V("a"), Y: lang.C(1)}})
	b.AddEdge(loop, loop, lang.Assume{Cond: lt3})
	b.AddEdge(loop, after, lang.Call{Proc: "work"})
	b.AddEdge(after, exit, lang.Assume{Cond: lang.NotE(lt3)})
	w := cfg.NewProc("work")
	wexit := w.NewNode()
	w.AddEdge(w.Entry(), wexit, lang.Skip{})
	prog, err := cfg.NewProgram("loop", []lang.Var{"a"}, "main", b.Finish(exit), w.Finish(wexit))
	if err != nil {
		t.Fatal(err)
	}
	return prog.Proc(prog.Main)
}

// refKey and refModel are the five per-query maps the region graph
// replaced, with the replaceRegion that migrated them — kept here, verbatim
// in its semantics but for the inheritance of shut marks, as the reference
// the graph is held against: a pair the model has eliminated or shut is one
// the graph has no record of. Keys of retired regions pile up in it as they
// did then; only live pairs are compared. at is the model's own copy of the
// partitions, and search the search the five maps were walked by: every
// pair of the far partition, probed in partition order.
type refKey struct{ edge, from, to int }

type refModel struct {
	elim     map[refKey]bool
	open     map[refKey]int8
	stuck    map[refKey]bool
	pending  map[refKey]*summary.Question
	attempts map[refKey]int
	at       [][]*Region
}

func newRefModel(g *Graph) *refModel {
	m := &refModel{
		elim:     map[refKey]bool{},
		open:     map[refKey]int8{},
		stuck:    map[refKey]bool{},
		pending:  map[refKey]*summary.Question{},
		attempts: map[refKey]int{},
	}
	for n := 0; n < g.proc.NNodes; n++ {
		m.at = append(m.at, slices.Clone(g.At(cfg.NodeID(n))))
	}
	return m
}

func (m *refModel) replaceRegion(r *Region, parts []*Region) {
	m.at[r.Node] = append(slices.DeleteFunc(m.at[r.Node], func(x *Region) bool { return x == r }), parts...)
	migrate := func(old refKey) []refKey {
		if old.from != int(r.ID) && old.to != int(r.ID) {
			return nil
		}
		var ids []int
		for _, p := range parts {
			ids = append(ids, int(p.ID))
		}
		froms := []int{old.from}
		if old.from == int(r.ID) {
			froms = ids
		}
		tos := []int{old.to}
		if old.to == int(r.ID) {
			tos = ids
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
	// The one place the model departs from the five maps, as the graph
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

// search is FindPath (path set) or Reachable over the model: breadth-first,
// every region of the far partition probed in order, the one-step check
// made on first need and remembered. It returns what it reached, the path
// to the first target at exit (nil when there is none, or path is unset)
// and the pairs it evaluated, in order.
func (m *refModel) search(proc *cfg.Proc, solver *smt.Solver, pre logic.Formula, avoid, reverse, path bool) (seen map[int32]bool, found, evals []refKey) {
	var queue []*Region
	if reverse {
		for _, r := range m.at[proc.Exit] {
			if r.Target {
				queue = append(queue, r)
			}
		}
	} else {
		for _, r := range m.at[proc.Entry] {
			if s := solver.Sat(logic.Conj(r.F, pre)); !s.Known || s.Sat {
				queue = append(queue, r)
			}
		}
	}
	seen, via := map[int32]bool{}, map[int32]refKey{}
	for _, r := range queue {
		seen[r.ID] = true
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if path && cur.Target && cur.Node == proc.Exit {
			found = []refKey{}
			for id := cur.ID; ; {
				k, ok := via[id]
				if !ok {
					break
				}
				found = append([]refKey{k}, found...)
				id = int32(k.from)
			}
			return seen, found, evals
		}
		incident := proc.Out[cur.Node]
		if reverse {
			incident = proc.In[cur.Node]
		}
		for _, ei := range incident {
			ce := proc.Edges[ei]
			far := ce.To
			if reverse {
				far = ce.From
			}
			for _, r2 := range m.at[far] {
				if seen[r2.ID] {
					continue
				}
				from, to := cur, r2
				if reverse {
					from, to = r2, cur
				}
				k := refKey{ei, int(from.ID), int(to.ID)}
				if m.elim[k] || avoid && (m.stuck[k] || m.pending[k] != nil) {
					continue
				}
				if m.open[k] == 0 {
					m.open[k] = 1
					if _, isCall := ce.Stmt.(lang.Call); !isCall {
						evals = append(evals, k)
						if !solver.StepFeasible(ce.StmtID, ce.Stmt, from.F, to.F) {
							m.open[k] = -1
						}
					}
				}
				if m.open[k] < 0 {
					continue
				}
				seen[r2.ID], via[r2.ID] = true, k
				queue = append(queue, r2)
			}
		}
	}
	return seen, nil, evals
}

func keyOf(g *Graph, e EdgeID) refKey {
	r := g.rec(e)
	return refKey{int(r.cfg), int(r.from), int(r.to)}
}

func listKeys(g *Graph, ids []EdgeID) []refKey {
	var ks []refKey
	for _, e := range ids {
		ks = append(ks, keyOf(g, e))
	}
	return ks
}

// TestTableAgainstFiveMapModel drives the graph and the reference model
// through the same random sequence of edge updates and splits — self-loop
// edges, parallel edges, splits into no, one or several parts, splits of
// parts — and compares every live abstract edge, and the graph's
// invariants, after every step. Then both are searched, forwards for a
// path and in a random direction for what is reachable: same path, same
// regions reached, and the same one-step checks made in the same order —
// what a search is charged for.
func TestTableAgainstFiveMapModel(t *testing.T) {
	proc := loopProc(t)
	pre := logic.Not(le("a", 5)) // some entry regions below are outside it
	var evals []refKey
	defer func(old func(*Graph, EdgeID)) { auditStep = old }(auditStep)
	auditStep = func(g *Graph, e EdgeID) { evals = append(evals, keyOf(g, e)) }
	searches, evaluated, paths := 0, 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(proc, le("a", 7))
		ref := newRefModel(g)
		m, solver := &punch.Meter{Solver: smt.New()}, smt.New()
		var live []*Region
		for _, regs := range ref.at {
			live = append(live, regs...)
		}
		compare := func(step int, what string) {
			t.Helper()
			if err := g.Check(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			for ci, ce := range proc.Edges {
				if !slices.Equal(g.At(ce.From), ref.at[ce.From]) {
					t.Fatalf("seed %d step %d (%s): partition of n%d is %v, model has %v", seed, step, what, ce.From, g.At(ce.From), ref.at[ce.From])
				}
				for _, f := range ref.at[ce.From] {
					for _, to := range ref.at[ce.To] {
						k := refKey{ci, int(f.ID), int(to.ID)}
						e, dead := g.Edge(ci, f, to), ref.elim[k] || ref.open[k] < 0
						if (e == 0) != dead {
							t.Fatalf("seed %d step %d (%s): edge %v has record %d, model has {elim %v open %d}", seed, step, what, k, e, ref.elim[k], ref.open[k])
						}
						if e == 0 {
							continue
						}
						if r := g.rec(e); r.stuck() != ref.stuck[k] || r.attempts() != ref.attempts[k] || g.asked[e] != ref.pending[k] || r.asked() != (ref.pending[k] != nil) || r.open() != (ref.open[k] > 0) {
							t.Fatalf("seed %d step %d (%s): edge %v is {stuck %v attempts %d pending %p asked %v open %v}, model has {%v %d %p %d}",
								seed, step, what, k, r.stuck(), r.attempts(), g.asked[e], r.asked(), r.open(),
								ref.stuck[k], ref.attempts[k], ref.pending[k], ref.open[k])
						}
					}
				}
				// Each list holds the live edges in the far partition's
				// order: the model's live pairs, far end by far end.
				live := func(from, to *Region) bool {
					k := refKey{ci, int(from.ID), int(to.ID)}
					return !ref.elim[k] && ref.open[k] >= 0
				}
				for _, f := range ref.at[ce.From] {
					var want []refKey
					for _, to := range ref.at[ce.To] {
						if live(f, to) {
							want = append(want, refKey{ci, int(f.ID), int(to.ID)})
						}
					}
					if got := listKeys(g, g.Out(ci, f, nil)); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): R%d lists %v over CFG edge %d, the model has %v", seed, step, what, f.ID, got, ci, want)
					}
				}
				for _, to := range ref.at[ce.To] {
					var want []refKey
					for _, f := range ref.at[ce.From] {
						if live(f, to) {
							want = append(want, refKey{ci, int(f.ID), int(to.ID)})
						}
					}
					var ids []EdgeID
					for e := g.headOf(to, int32(ci), in).first; e != 0; e = g.rec(e).next[in] {
						ids = append(ids, e)
					}
					if got := listKeys(g, ids); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): R%d lists %v into it over CFG edge %d, the model has %v", seed, step, what, to.ID, got, ci, want)
					}
				}
			}
		}
		for step := 0; step < 100 && len(live) > 0; step++ {
			ci := rng.Intn(len(proc.Edges))
			ce := proc.Edges[ci]
			op := rng.Intn(8)
			what := "split"
			if froms, tos := ref.at[ce.From], ref.at[ce.To]; op >= 6 || len(froms) == 0 || len(tos) == 0 {
				r := live[rng.Intn(len(live))]
				var parts []*Region
				for i, n := 0, (rng.Intn(8)+2)%5; i < n; i++ { // none, once in eight
					parts = append(parts, g.NewRegion(r.Node, le("a", int64(step%12-2+i)), r.Target))
				}
				g.Split(r, parts...)
				ref.replaceRegion(r, parts)
				live = append(slices.DeleteFunc(live, func(x *Region) bool { return x == r }), parts...)
				if r.Live() {
					t.Fatalf("seed %d step %d: split region still live", seed, step)
				}
			} else {
				from, to := froms[rng.Intn(len(froms))], tos[rng.Intn(len(tos))]
				if ce.From == ce.To && rng.Intn(4) == 0 {
					to = from // a self-loop edge
				}
				k := refKey{ci, int(from.ID), int(to.ID)}
				e := g.Edge(ci, from, to)
				if e == 0 {
					continue // dead, and nothing is said about a dead edge
				}
				switch op {
				case 0:
					what = "elim"
					g.Kill(e)
					ref.elim[k] = true
				case 1:
					what = "stuck"
					g.SetStuck(e)
					ref.stuck[k] = true
				case 2:
					what = "pending"
					q := &summary.Question{Proc: fmt.Sprint("p", step)}
					g.SetPending(e, q)
					ref.pending[k] = q
				case 3:
					what = "answered"
					g.SetPending(e, nil)
					delete(ref.pending, k)
				case 4:
					what = "attempt"
					if n := g.Attempt(e); n != ref.attempts[k]+1 {
						t.Fatalf("seed %d step %d: Attempt returned %d, want %d", seed, step, n, ref.attempts[k]+1)
					}
					ref.attempts[k]++
				case 5:
					what = "open"
					if ref.open[k] = int8(1 - 2*rng.Intn(2)); ref.open[k] > 0 {
						g.rec(e).marks |= openBit
					} else {
						g.Kill(e) // as a search does with an edge it finds shut
					}
				}
			}
			compare(step, what)

			avoid, reverse := rng.Intn(2) == 0, rng.Intn(2) == 0
			evals = nil
			path := g.FindPath(m, pre, avoid)
			_, wantPath, wantEvals := ref.search(proc, solver, pre, avoid, false, true)
			var gotPath []refKey
			for _, e := range path {
				gotPath = append(gotPath, keyOf(g, e))
			}
			if (path == nil) != (wantPath == nil) || !slices.Equal(gotPath, wantPath) || !slices.Equal(evals, wantEvals) {
				t.Fatalf("seed %d step %d (%s): FindPath(avoid=%v) = %v after checking %v, model finds %v after %v", seed, step, what, avoid, gotPath, evals, wantPath, wantEvals)
			}
			evaluated += len(evals)
			evals = nil
			reach := g.Reachable(m, pre, reverse)
			wantReach, _, wantEvals := ref.search(proc, solver, pre, false, reverse, false)
			for _, r := range live {
				if reach[r.ID] != wantReach[r.ID] {
					t.Fatalf("seed %d step %d (%s): Reachable(reverse=%v) has R%d %v, model %v", seed, step, what, reverse, r.ID, reach[r.ID], wantReach[r.ID])
				}
			}
			if !slices.Equal(evals, wantEvals) {
				t.Fatalf("seed %d step %d (%s): Reachable(reverse=%v) checked %v, model %v", seed, step, what, reverse, evals, wantEvals)
			}
			evaluated += len(evals)
			if wantPath != nil {
				paths++
			}
			searches += 2
			compare(step, "search after "+what)
		}
	}
	if evaluated == 0 || paths == 0 {
		t.Fatalf("%d searches made %d one-step checks and found %d paths: nothing compared", searches, evaluated, paths)
	}
	t.Logf("%d searches, %d one-step checks, %d paths, all as the model's", searches, evaluated, paths)
}

// TestReplaceRegionMigratesBookkeeping: what an analysis recorded on a
// region's edges — stuck, tried, waiting for a child — reaches the edges of
// every part a split leaves behind, a self-loop's every pair of parts, and
// an eliminated edge stays dead for every part.
func TestReplaceRegionMigratesBookkeeping(t *testing.T) {
	// n0 ─havoc a─▶ n0 (CFG edge 0, a self-loop), n0 ─a=1─▶ n1 (edge 1).
	b := cfg.NewProc("main")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), b.Entry(), lang.Havoc{V: "a"})
	b.AddEdge(b.Entry(), exit, lang.Assign{Lhs: "a", Rhs: lang.C(1)})
	proc := cfg.MustProgram("p", []lang.Var{"a"}, "main", b.Finish(exit)).Proc("main")
	g := New(proc, le("a", 5))
	r, hit, miss := g.At(proc.Entry)[0], g.At(proc.Exit)[0], g.At(proc.Exit)[1]
	loop, out := g.Edge(0, r, r), g.Edge(1, r, hit)
	g.SetStuck(loop)
	for range 3 {
		g.Attempt(loop)
	}
	q := &summary.Question{Proc: "p", Pre: logic.True, Post: logic.True}
	g.SetPending(out, q)
	g.Kill(g.Edge(1, r, miss))

	parts := []*Region{g.NewRegion(r.Node, le("a", 0), true), g.NewRegion(r.Node, logic.Not(le("a", 0)), true)}
	g.Split(r, parts...)
	mustCheck(t, g)
	for _, part := range parts {
		if !part.Target {
			t.Errorf("target flag lost on R%d", part.ID)
		}
		for _, to := range parts {
			if e := g.Edge(0, part, to); e == 0 || !g.Blocked(e) || g.asked[e] != nil || g.rec(e).attempts() != 3 {
				t.Errorf("R%d→R%d did not inherit stuck and 3 attempts from the self-loop: edge %d", part.ID, to.ID, e)
			}
		}
		if e := g.Edge(1, part, hit); e == 0 || g.asked[e] != q || g.rec(e).stuck() || g.rec(e).attempts() != 0 {
			t.Errorf("R%d→R%d did not inherit the outstanding child (and nothing else): edge %d", part.ID, hit.ID, e)
		}
		if e := g.Edge(1, part, miss); e != 0 {
			t.Errorf("eliminated edge is live for part R%d: %v", part.ID, g.Step(e))
		}
	}
	// The retired region's own question went with it.
	if g.asked[out] != nil || g.rec(out).asked() {
		t.Errorf("the retired edge %v still holds its question", g.Step(out))
	}
	// Answering every child finds them all among the questions.
	db := summary.New(smt.New())
	db.Add(summary.Summary{Kind: summary.NotMay, Proc: "p", Pre: logic.True, Post: logic.True})
	g.SweepPending(db)
	for _, part := range parts {
		if e := g.Edge(1, part, hit); g.Blocked(e) || len(g.asked) != 0 {
			t.Errorf("answered child still pending on R%d", part.ID)
		}
	}
	mustCheck(t, g)
}

// TestNoEdgeFailsLoudly: 0 names no edge, as nil did, and an accessor
// handed it panics instead of writing a record that belongs to no edge;
// Kill alone takes it and does nothing, which Eliminate relies on for the
// pairs that are dead already.
func TestNoEdgeFailsLoudly(t *testing.T) {
	proc := loopProc(t)
	g := New(proc, le("a", 7))
	for name, use := range map[string]func(){
		"Step":       func() { g.Step(0) },
		"Attempt":    func() { g.Attempt(0) },
		"SetStuck":   func() { g.SetStuck(0) },
		"Blocked":    func() { g.Blocked(0) },
		"SetPending": func() { g.SetPending(0, &summary.Question{Proc: "work"}) },
		"beyond":     func() { g.Step(EdgeID(g.nEdges)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(no edge) did not panic", name)
				}
			}()
			use()
		}()
	}
	if *g.rec(0) != (edge{}) || len(g.asked) != 0 {
		t.Fatalf("record 0 was written: %+v, questions %v", *g.rec(0), g.asked)
	}
	n := g.nEdges
	g.Kill(0)
	r := g.At(proc.Entry)[0]
	g.Eliminate(0, []*Region{r}, g.At(proc.Edges[0].To)[0])
	g.Eliminate(0, []*Region{r}, g.At(proc.Edges[0].To)[0]) // the pair is dead now: Kill(0)
	if g.nEdges != n || *g.rec(0) != (edge{}) {
		t.Fatalf("Kill(0) changed the graph: %d records (was %d), record 0 %+v", g.nEdges, n, *g.rec(0))
	}
	mustCheck(t, g)
}

// TestEdgeRecordPointerFree: an edge record and a list head hold no
// pointer, so the chunks the graph keeps its records in and its slab of
// list heads are memory the collector never scans. A field of a kind that
// holds one — pointer, slice, map, interface, string, channel, function —
// fails it, at any depth. A record, the two links of its lists included,
// takes at most 24 bytes.
func TestEdgeRecordPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: the record holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("chunk", reflect.TypeFor[[chunkLen]edge]())
	walk("heads", reflect.TypeFor[head]())
	if size := reflect.TypeFor[edge]().Size(); size > 24 {
		t.Errorf("an edge record takes %d bytes, more than its 24", size)
	}
}

// TestAttemptsSaturate: the attempt count shares its word with the marks
// and stops at maxAttempts, far above any bound the analyses set, without
// spilling into them.
func TestAttemptsSaturate(t *testing.T) {
	if maxAttempts < 1<<28 {
		t.Fatalf("maxAttempts is %d: too few bits for an attempt count", maxAttempts)
	}
	proc := loopProc(t)
	g := New(proc, le("a", 7))
	e := g.Edge(0, g.At(proc.Edges[0].From)[0], g.At(proc.Edges[0].To)[0])
	g.SetStuck(e)
	g.rec(e).marks |= (maxAttempts - 1) << attemptShift
	for i := range 3 {
		if got := g.Attempt(e); got != maxAttempts {
			t.Fatalf("attempt %d at the top returns %d, want %d", i+1, got, maxAttempts)
		}
	}
	if r := g.rec(e); !r.stuck() || r.open() || r.asked() {
		t.Fatalf("a saturated count changed the marks: stuck %v open %v asked %v", r.stuck(), r.open(), r.asked())
	}
}

func TestEdgeOnRetiredRegionPanics(t *testing.T) {
	proc := mainProc(t, `globals a; proc main { a = 1; }`)
	g := New(proc, logic.True)
	r := g.At(proc.Entry)[0]
	next := g.At(proc.Edges[0].To)[0]
	if g.Edge(0, r, next) == 0 {
		t.Fatal("no initial edge over the first statement")
	}
	g.Split(r, g.NewRegion(r.Node, logic.True, false))
	defer func() {
		if recover() == nil {
			t.Fatal("an edge on a retired region was accepted")
		}
	}()
	g.Edge(0, r, next)
}

// TestEliminateAfterSelfLoopSplit: parts of a region split on its own
// self-loop edge are not marked against the retired destination.
func TestEliminateAfterSelfLoopSplit(t *testing.T) {
	proc := loopProc(t)
	g := New(proc, logic.True)
	const loop = 2 // n2 ─a=a+1─▶ n2
	r := g.At(proc.Edges[loop].From)[0]
	if g.Edge(loop, r, r) == 0 {
		t.Fatal("no initial self-loop edge")
	}
	a, b := g.NewRegion(r.Node, le("a", 0), false), g.NewRegion(r.Node, logic.Not(le("a", 0)), false)
	g.Split(r, a, b)
	g.Eliminate(loop, []*Region{b}, r)
	mustCheck(t, g)
	for _, f := range []*Region{a, b} {
		for _, to := range []*Region{a, b} {
			if g.Edge(loop, f, to) == 0 {
				t.Fatalf("R%d→R%d died with the retired destination", f.ID, to.ID)
			}
		}
	}
	g.Eliminate(loop, []*Region{b}, a)
	mustCheck(t, g)
	if g.Edge(loop, b, a) != 0 || g.Edge(loop, a, a) == 0 || g.Edge(loop, b, b) == 0 {
		t.Fatal("live destination not marked, or more than it")
	}
}

func TestFindPathAndSweepPending(t *testing.T) {
	prog, err := parser.Parse(`globals a; proc main { a = 1; work(); } proc work { a = a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	proc := prog.Proc(prog.Main)
	solver := smt.New()
	m := &punch.Meter{Solver: solver}
	g := New(proc, le("a", 5))
	path := g.FindPath(m, logic.True, true)
	if len(path) != len(proc.Edges) || g.Step(path[0]).From.Node != proc.Entry || !g.Step(path[len(path)-1]).To.Target {
		t.Fatalf("path = %v", path)
	}
	if m.Cost == 0 {
		t.Fatal("search was not charged")
	}
	// A pending call edge is avoided by the actionable search only.
	call := path[len(path)-1]
	g.SetPending(call, &summary.Question{Proc: "work", Pre: logic.True, Post: le("a", 5)})
	if g.FindPath(m, logic.True, true) != nil {
		t.Fatal("actionable path through a pending edge")
	}
	if g.FindPath(m, logic.True, false) == nil {
		t.Fatal("pending edge hidden from the any-path search")
	}
	// The mark survives a sweep until SUMDB can answer the question.
	db := summary.New(solver)
	g.SweepPending(db)
	if g.asked[call] == nil || !g.Blocked(call) {
		t.Fatal("unanswered child swept")
	}
	db.Add(summary.Summary{Kind: summary.NotMay, Proc: "work", Pre: logic.True, Post: le("a", 5)})
	g.SweepPending(db)
	if g.asked[call] != nil || g.Blocked(call) {
		t.Fatal("answered child still pending")
	}
	// Eliminating the edge leaves no path at all, forward or backward.
	g.Kill(call)
	if g.FindPath(m, logic.True, false) != nil {
		t.Fatal("path through an eliminated edge")
	}
	fwd, bwd := g.Reachable(m, logic.True, false), g.Reachable(m, logic.True, true)
	if stp := g.Step(call); !fwd[stp.From.ID] || fwd[stp.To.ID] || bwd[stp.From.ID] || !bwd[stp.To.ID] {
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
				g.rec(e).marks |= openBit
				if to.Target || (i+j)%3 == 0 {
					g.Kill(e)
				}
			}
		}
	}
	return g, &punch.Meter{Solver: smt.New()}
}

// TestFindPathAllocPin: once the scratch has grown to the graph and every
// edge on the way has had its one-step check, a search allocates nothing,
// whether it finds a path or not: the path is the graph's.
func TestFindPathAllocPin(t *testing.T) {
	g, m := benchGraph(t)
	pin := func(what string, want float64, found bool) {
		t.Helper()
		if (g.FindPath(m, logic.True, true) != nil) != found { // also the warm-up
			t.Fatalf("%s: path found = %v", what, !found)
		}
		if got := testing.AllocsPerRun(50, func() { g.FindPath(m, logic.True, true) }); got != want {
			t.Errorf("%s: FindPath allocates %v times a search, want %v", what, got, want)
		}
	}
	pin("no path", 0, false)
	// Make a target of the exit region outside the postcondition, the one
	// whose incoming edges benchGraph left alive.
	rest := g.At(g.proc.Exit)[0]
	g.Split(rest, g.NewRegion(rest.Node, rest.F, true))
	pin("a path", 0, true)
	mustCheck(t, g)
}

// TestSplitAllocPin: a region and its lists are memory the graph owns.
// On a graph whose region and record chunks and slab of list heads have
// room, minting a part and splitting a region into it allocate nothing
// beyond the partition slice, which here keeps its length.
func TestSplitAllocPin(t *testing.T) {
	g, _ := benchGraph(t)
	const runs = 50
	node := g.proc.Edges[1].To
	for len(g.regs) < int(g.nRegions+runs)/chunkLen+1 {
		g.regs = append(g.regs, new([chunkLen]Region))
	}
	edges := 0 // what one split of a region at node links, at most
	for _, r := range g.At(node) {
		for _, dir := range []int{out, in} {
			for _, h := range g.listsOf(r, dir) {
				for e := h.first; e != 0; e = g.rec(e).next[dir] {
					edges++
				}
			}
		}
	}
	for len(g.chunks) < (int(g.nEdges)+runs*edges)/chunkLen+1 {
		g.chunks = append(g.chunks, new([chunkLen]edge))
	}
	n := len(g.proc.Out[node]) + len(g.proc.In[node])
	g.heads = slices.Grow(g.heads, runs*n)
	// testing.AllocsPerRun rounds the mean down, and a slab that grows
	// now and then allocates less than once a run: count every malloc.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		r := g.At(node)[i%len(g.At(node))]
		g.Split(r, g.NewRegion(r.Node, r.F, r.Target))
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("%d region mints and splits allocate %d times, want 0", runs, got)
	}
	mustCheck(t, g)
}

// TestSplitReusesHeads: a split gives the retired region's block of list
// heads back to its node, and the next region minted there takes it, so
// however many times the regions of one node are split, the slab holds
// no more blocks for the node than it had regions at once (the live
// partition and the parts of the split under way).
func TestSplitReusesHeads(t *testing.T) {
	proc := loopProc(t)
	g := New(proc, logic.True)
	node := proc.Edges[2].From // n2, with two self-loops
	k := len(proc.Out[node]) + len(proc.In[node])
	base, peak, minted := len(g.heads), 1, 0
	rng := rand.New(rand.NewSource(7))
	for step := range 300 {
		at := g.At(node)
		n := rng.Intn(3) // 0 parts drops the region from the partition
		if len(at) == 1 {
			n = 1 + rng.Intn(2)
		}
		parts := make([]*Region, n)
		for i := range parts {
			parts[i] = g.NewRegion(node, le("a", int64(step%7+i)), false)
		}
		minted += n
		peak = max(peak, len(at)+n)
		g.Split(at[rng.Intn(len(at))], parts...)
		mustCheck(t, g)
	}
	if want := base + (peak-1)*k; len(g.heads) != want {
		t.Fatalf("%d regions minted at n%d, at most %d at once: the slab holds %d heads, want %d", minted, node, peak, len(g.heads), want)
	}
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
