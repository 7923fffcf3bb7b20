package regions

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/smt"
)

func ge(name string, k int64) logic.Formula {
	return logic.LEq(logic.LinConst(k), logic.LinVar(lang.Var(name)))
}

func eq(name string, k int64) logic.Formula {
	return logic.Eq(logic.LinVar(lang.Var(name)), logic.LinConst(k))
}

// provedGraph returns the graph of a procedure over globals g, h and the
// local x, its entry region replaced by parts with the given formulas.
func provedGraph(t *testing.T, parts ...logic.Formula) (*Graph, *punch.Meter, []lang.Var) {
	t.Helper()
	proc := mainProc(t, `globals g, h; proc main { locals x; x = x + 1; }`)
	g := New(proc, le("g", 0))
	if len(parts) > 0 {
		rs := make([]*Region, len(parts))
		for i, f := range parts {
			rs[i] = g.NewRegion(proc.Entry, f, false)
		}
		g.Split(g.At(proc.Entry)[0], rs...)
		mustCheck(t, g)
	}
	return g, &punch.Meter{Solver: smt.New()}, []lang.Var{"g", "h"}
}

// equivalent reports whether a and b denote the same states.
func equivalent(s *smt.Solver, a, b logic.Formula) bool {
	return s.Implies(a, b) && s.Implies(b, a)
}

// TestProvedPreWholeEntryRegions: the proof covers the whole entry regions
// it started from, not only the question's precondition. An unsplit entry
// region is ⊤, so the summary claims every state.
func TestProvedPreWholeEntryRegions(t *testing.T) {
	g, m, globals := provedGraph(t)
	if got := g.ProvedPre(m, eq("g", 0), globals); got != logic.Formula(logic.True) {
		t.Fatalf("ProvedPre over the unsplit entry region = %v, want true", got)
	}
	// Split on the globals only: the regions meeting g = 0 are kept whole,
	// the one that misses it is left out.
	g, m, globals = provedGraph(t, le("g", 0), logic.Conj(ge("g", 1), le("h", 5)), logic.Conj(ge("g", 1), ge("h", 6)))
	got := g.ProvedPre(m, eq("g", 0), globals)
	if !equivalent(m.Solver, got, le("g", 0)) {
		t.Fatalf("ProvedPre = %v, want g ≤ 0", got)
	}
	if m.Cost == 0 {
		t.Fatal("ProvedPre was not charged")
	}
}

// TestProvedPreUniversalOverLocals: entry regions that constrain the
// uninitialised local x are projected universally. From g = 0 every x is
// in a region meeting g = 0; from g = 1 the values x ≤ 0 are not, so the
// summary must not claim g = 1 — the ∃-projection would claim every g.
func TestProvedPreUniversalOverLocals(t *testing.T) {
	g, m, globals := provedGraph(t,
		ge("x", 1),
		logic.Conj(le("x", 0), eq("g", 0)),
		logic.Conj(le("x", 0), le("g", -1)),
		logic.Conj(le("x", 0), ge("g", 1)))
	got := g.ProvedPre(m, eq("g", 0), globals)
	if !equivalent(m.Solver, got, eq("g", 0)) {
		t.Fatalf("ProvedPre = %v, want g = 0", got)
	}
	for _, v := range logic.FreeVars(got) {
		if v == "x" {
			t.Fatalf("ProvedPre = %v mentions the local x", got)
		}
	}
}

// TestProvedPreHoldsPre: the stored precondition always holds the
// question's. Over the integers no x has 2x = 1, so every x puts g = 1
// into a region meeting it; the projection's real shadow does not see
// that and yields h ≥ 1 only, which misses g = 1: the result is the
// disjunction. A projection over MaxPreSize gives way to pre.
func TestProvedPreHoldsPre(t *testing.T) {
	twoX := logic.LinVar("x").Scale(2)
	gv := logic.LinVar("g")
	g, m, globals := provedGraph(t,
		ge("h", 1),
		logic.Conj(le("h", 0), logic.LEq(twoX, gv.AddConst(-1))),
		logic.Conj(le("h", 0), logic.LEq(gv.AddConst(1), twoX)),
		logic.Conj(le("h", 0), logic.Eq(twoX, gv)))
	pre := eq("g", 1)
	got := g.ProvedPre(m, pre, globals)
	if !m.Solver.Implies(pre, got) || !equivalent(m.Solver, got, logic.Disj(pre, ge("h", 1))) {
		t.Fatalf("ProvedPre = %v, want g = 1 ∨ h ≥ 1", got)
	}

	var parts []logic.Formula
	for i := int64(0); i < 100; i++ {
		parts = append(parts, logic.Conj(ge("g", 2*i), le("g", 2*i+1), ge("h", i)))
	}
	g, m, globals = provedGraph(t, append(parts, le("g", -1), ge("g", 200))...)
	pre = ge("g", 0)
	if got := g.ProvedPre(m, pre, globals); logic.KeyID(got) != logic.KeyID(pre) {
		t.Fatalf("ProvedPre over %d regions = %v (size %d), want pre", len(parts), got, logic.Size(got))
	}
}
