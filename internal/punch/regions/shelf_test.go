package regions

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/summary"
)

// TestShelfHandoff: a graph shelved by the query that refined it and taken
// by the next query of its procedure and postcondition is the same graph,
// with the same partitions and live edges. Every open mark survives; no
// record carries a question, a stuck mark or an attempt count; the graph
// passes Check; and the any-path search from each entry region gives the
// answer it gave before the graph was shelved. A Take under another
// postcondition builds a new graph instead.
func TestShelfHandoff(t *testing.T) {
	g, m := benchGraph(t)
	rest := g.At(g.proc.Exit)[0]
	g.Split(rest, g.NewRegion(rest.Node, rest.F, true)) // leave paths to find
	path := slices.Clone(g.FindPath(m, logic.True, true))
	if len(path) < 3 {
		t.Fatalf("path %v: the graph leaves too little to mark", path)
	}
	g.SetPending(path[0], &summary.Question{Proc: "main", Pre: logic.True, Post: le("a", 0)})
	g.SetStuck(path[1])
	g.Attempt(path[2])
	g.Attempt(path[2])
	answers := map[int32][]EdgeID{}
	for _, r := range g.At(g.proc.Entry) {
		answers[r.ID] = slices.Clone(g.FindPath(m, r.F, false))
	}
	live, open := liveEdges(g)

	shelf := &punch.Shelf{}
	g.Shelve(shelf)
	if other := Take(shelf, g.proc, le("a", 1)); other == g {
		t.Fatal("a graph was taken under another postcondition")
	}
	got := Take(shelf, g.proc, le("a", 0))
	if got != g {
		t.Fatal("Take built a new graph; the shelved one was due")
	}
	mustCheck(t, got)
	if len(got.asked) != 0 {
		t.Errorf("%d questions survive the handoff", len(got.asked))
	}
	for e := EdgeID(1); int32(e) < got.nEdges; e++ {
		if r := got.rec(e); r.asked() || r.stuck() || r.attempts() != 0 {
			t.Errorf("%v carries asked=%v stuck=%v attempts=%d after the handoff", got.Step(e), r.asked(), r.stuck(), r.attempts())
		}
	}
	if l, o := liveEdges(got); !slices.Equal(l, live) || !slices.Equal(o, open) {
		t.Errorf("live edges %d → %d, open marks %d → %d across the handoff", len(live), len(l), len(open), len(o))
	}
	for _, r := range got.At(got.proc.Entry) {
		if p := got.FindPath(m, r.F, false); !slices.Equal(p, answers[r.ID]) {
			t.Errorf("from R%d the search finds %v after the handoff, %v before", r.ID, p, answers[r.ID])
		}
	}
	if got.FindPath(m, logic.True, true) == nil {
		t.Error("the cleared marks still block the actionable search")
	}
	if shelved, taken, _ := shelf.Counts(); shelved != 1 || taken != 1 {
		t.Errorf("shelf counts shelved %d, taken %d; want 1, 1", shelved, taken)
	}
}

// liveEdges lists the live edges of g and those of them marked open.
func liveEdges(g *Graph) (live, open []EdgeID) {
	for _, regs := range g.at {
		for _, r := range regs {
			for _, h := range g.listsOf(r, out) {
				for e := h.first; e != 0; e = g.rec(e).next[out] {
					live = append(live, e)
					if g.rec(e).open() {
						open = append(open, e)
					}
				}
			}
		}
	}
	slices.Sort(live)
	slices.Sort(open)
	return live, open
}

// TestShelfTakeAllocFree: handing a graph on is a move. Taking a shelved
// graph — the lookup, clearing the marks of its thousand records — and
// shelving it again allocate nothing, so no copy can creep in.
func TestShelfTakeAllocFree(t *testing.T) {
	g, _ := benchGraph(t)
	post := le("a", 0)
	shelf := &punch.Shelf{}
	g.Shelve(shelf)
	allocs := testing.AllocsPerRun(100, func() {
		got := Take(shelf, g.proc, post)
		if got != g {
			t.Fatal("the shelved graph was not taken")
		}
		got.Shelve(shelf)
	})
	if allocs != 0 {
		t.Errorf("a take and shelve allocate %v times, want 0", allocs)
	}
}
