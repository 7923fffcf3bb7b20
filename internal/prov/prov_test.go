package prov

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
)

func g(x int64) logic.Formula {
	return logic.Eq(logic.LinVar(lang.Var("g")), logic.LinConst(x))
}

func mkSum(proc string, a, b int64) summary.Summary {
	return summary.Summary{Kind: summary.Must, Proc: proc, Pre: g(a), Post: g(b)}
}

// stubDB is a canned punch.DB so frame recording is tested without
// solver entailment semantics in the way.
type stubDB struct{ s summary.Summary }

func (d *stubDB) Solver() *smt.Solver                                { return nil }
func (d *stubDB) Add(summary.Summary)                                {}
func (d *stubDB) Answer(summary.Question) (summary.Summary, int)     { return d.s, -1 }
func (d *stubDB) AnswerYes(summary.Question) (summary.Summary, bool) { return d.s, true }
func (d *stubDB) AnswerNo(summary.Question) (summary.Summary, bool) {
	return summary.Summary{}, false
}
func (d *stubDB) ForProc(string) []summary.Summary { return []summary.Summary{d.s} }

// run is a hand-written event stream: the events a reducer would emit.
type run struct{ f *Fold }

func newRun() run { return run{NewFold()} }

func (r run) spawn(parent, id query.ID, proc string) {
	r.f.Event(obs.Event{Type: obs.EvSpawn, Query: id, Parent: parent, Proc: proc})
}

func (r run) coalesce(parent, dup query.ID, proc string) {
	r.f.Event(obs.Event{Type: obs.EvCoalesce, Query: dup, Parent: parent, Proc: proc})
}

func (r run) warm(s summary.Summary) {
	r.f.Event(obs.Event{Type: obs.EvSumAdd, Query: query.NoParent, Proc: s.Proc, Sum: &s})
}

// punch emits what query id of proc logged in fr, as the reducer does
// after the invocation's punch-end.
func (r run) punch(id query.ID, proc string, fr *Frame) {
	for i := range fr.Log {
		a := &fr.Log[i]
		ev := obs.Event{Type: obs.EvSumRead, Query: id, Proc: proc, Sum: &a.Sum}
		switch {
		case a.Add:
			ev.Type = obs.EvSumAdd
		case a.Scan:
			ev.N = 1
		}
		r.f.Event(ev)
	}
}

// TestFoldScenario runs a three-procedure scenario through frames and
// the fold and checks every derived view of the Finish artifact.
func TestFoldScenario(t *testing.T) {
	r := newRun()
	warm := mkSum("leaf", 0, 1)
	r.warm(warm)

	r.spawn(query.NoParent, 1, "main")
	r.spawn(1, 2, "mid")
	r.spawn(2, 3, "leaf")

	// mid's PUNCH invocation consumes leaf's warm summary and produces
	// its own; main scans mid's summaries.
	f := &Frame{DB: &stubDB{s: warm}}
	if _, ok := f.AnswerYes(summary.Question{Proc: "leaf", Pre: g(0), Post: g(1)}); !ok {
		t.Fatal("stub must answer")
	}
	if _, ok := f.AnswerNo(summary.Question{Proc: "leaf", Pre: g(0), Post: g(2)}); ok {
		t.Fatal("stub must not answer no")
	}
	f.Add(mkSum("mid", 0, 1))
	r.punch(2, "mid", f)
	rootFrame := &Frame{DB: &stubDB{s: mkSum("mid", 0, 1)}}
	if got := rootFrame.ForProc("mid"); len(got) != 1 {
		t.Fatalf("ForProc passthrough broken: %d summaries", len(got))
	}
	if len(f.Log) != 2 || len(rootFrame.Log) != 1 {
		t.Fatalf("frames logged %d and %d calls, want 2 and 1 (a miss is not a read)", len(f.Log), len(rootFrame.Log))
	}
	r.punch(1, "main", rootFrame)

	p := r.f.Finish("Program is Safe")
	if p.Root != "main" || p.Verdict != "Program is Safe" || p.Queries != 3 {
		t.Fatalf("header wrong: %+v", p)
	}
	if want := []string{"leaf", "main", "mid"}; !reflect.DeepEqual(p.Procedures, want) {
		t.Fatalf("cone %v, want %v", p.Procedures, want)
	}
	if p.Depth != 2 {
		t.Fatalf("depth %d, want 2 (main -> mid -> leaf)", p.Depth)
	}
	if p.SummaryReads != 1 || p.SummaryWrites != 1 || p.ProcReads != 1 {
		t.Fatalf("traffic reads=%d writes=%d procReads=%d, want 1/1/1",
			p.SummaryReads, p.SummaryWrites, p.ProcReads)
	}
	if p.WarmLoaded != 1 || p.WarmRead != 1 {
		t.Fatalf("warm attribution %d/%d, want 1/1", p.WarmRead, p.WarmLoaded)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(p.Summaries) != 2 || p.Summaries[0].Proc != "leaf" || !p.Summaries[0].Warm || p.Summaries[0].Reads != 1 ||
		p.Summaries[1].Proc != "mid" || !p.Summaries[1].Written || p.Summaries[1].Reads != 0 {
		t.Fatalf("summaries wrong: %+v", p.Summaries)
	}

	// Invalidation cones: editing leaf invalidates everything upstream;
	// editing main only itself; an untouched procedure has a trivial
	// cone that cannot affect the verdict.
	leafCone := p.Cone("leaf")
	if want := []string{"leaf", "main", "mid"}; !reflect.DeepEqual(leafCone.Procedures, want) {
		t.Fatalf("leaf cone %v, want %v", leafCone.Procedures, want)
	}
	if !leafCone.RootAffected || leafCone.Summaries == 0 {
		t.Fatalf("leaf cone must affect the root with summaries: %+v", leafCone)
	}
	mainCone := p.Cone("main")
	if !reflect.DeepEqual(mainCone.Procedures, []string{"main"}) || !mainCone.RootAffected {
		t.Fatalf("main cone wrong: %+v", mainCone)
	}
	other := p.Cone("untouched")
	if !reflect.DeepEqual(other.Procedures, []string{"untouched"}) || other.RootAffected || other.Summaries != 0 {
		t.Fatalf("untouched cone wrong: %+v", other)
	}
}

// TestCoalesceEdgeMatchesSpawnEdge: a dependency satisfied by a
// coalesced twin must produce the same procedure-level cone as a fresh
// spawn — the schedule-invariance property prov-smoke asserts end to
// end.
func TestCoalesceEdgeMatchesSpawnEdge(t *testing.T) {
	spawned := newRun()
	spawned.spawn(query.NoParent, 1, "main")
	spawned.spawn(1, 2, "f")

	coalesced := newRun()
	coalesced.spawn(query.NoParent, 1, "main")
	coalesced.coalesce(1, 2, "f")

	a := spawned.f.Finish("v")
	b := coalesced.f.Finish("v")
	if !bytes.Equal(a.StableBytes(), b.StableBytes()) {
		t.Fatalf("spawn vs coalesce cones differ:\n%s\n%s", a.StableBytes(), b.StableBytes())
	}
	if b.CoalesceReuse != 1 {
		t.Fatalf("coalesce reuse %d, want 1", b.CoalesceReuse)
	}
}

// TestStableBytesOrderInvariant: the same edges in a different order
// yield identical canonical bytes.
func TestStableBytesOrderInvariant(t *testing.T) {
	a := newRun()
	a.spawn(query.NoParent, 1, "main")
	a.spawn(1, 2, "f")
	a.spawn(1, 3, "g")
	a.spawn(2, 4, "h")

	b := newRun()
	b.spawn(query.NoParent, 1, "main")
	b.spawn(1, 3, "g")
	b.spawn(1, 2, "f")
	b.spawn(2, 4, "h")

	if !bytes.Equal(a.f.Finish("v").StableBytes(), b.f.Finish("v").StableBytes()) {
		t.Fatal("StableBytes must be insensitive to event order")
	}
}

// TestHotRanksByFanIn: a summary read once by each of three procedures
// ranks above one read five times by a single procedure, in Hot and in
// the report's "hot summaries by fan-in".
func TestHotRanksByFanIn(t *testing.T) {
	r := newRun()
	r.spawn(query.NoParent, 1, "main")
	procs := []string{"a", "b", "c"}
	for i, proc := range procs {
		r.spawn(1, query.ID(i+2), proc)
	}
	often, wide := mkSum("x", 0, 1), mkSum("y", 0, 1)
	f := &Frame{DB: &stubDB{s: often}}
	for i := 0; i < 5; i++ {
		f.AnswerYes(summary.Question{Proc: "x"})
	}
	r.punch(2, "a", f)
	for i, proc := range procs {
		f := &Frame{DB: &stubDB{s: wide}}
		f.AnswerYes(summary.Question{Proc: "y"})
		r.punch(query.ID(i+2), proc, f)
	}
	p := r.f.Finish("v")
	hot := p.Hot(5)
	if len(hot) != 2 || hot[0].Proc != "y" || hot[0].Readers != 3 || hot[1].Proc != "x" || hot[1].Reads != 5 {
		t.Fatalf("Hot = %+v, want y (3 readers) before x (5 reads, 1 reader)", hot)
	}
	out := p.Explain()
	_, list, _ := strings.Cut(out, "hot summaries by fan-in:\n")
	if !strings.HasPrefix(list, "    3x (3 readers, fresh) must y") {
		t.Fatalf("report does not rank by fan-in:\n%s", out)
	}
}

// TestVerifyViolations: each structural invariant fails loudly.
func TestVerifyViolations(t *testing.T) {
	if p := (*Provenance)(nil); p.Verify() == nil {
		t.Fatal("nil provenance must not verify")
	}
	if err := (&Provenance{Root: "a"}).Verify(); err == nil {
		t.Fatal("empty cone must not verify")
	}
	p := &Provenance{Root: "a", Procedures: []string{"b"}}
	if err := p.Verify(); err == nil {
		t.Fatal("cone missing its root must not verify")
	}
	p = &Provenance{
		Root:       "a",
		Procedures: []string{"a"},
		Spawns:     map[string][]string{"a": {"b"}},
	}
	if err := p.Verify(); err == nil {
		t.Fatal("cone not closed under spawn edges must not verify")
	}
	p = &Provenance{
		Root:       "a",
		Procedures: []string{"a"},
		Deps:       map[string][]string{"a": {"c"}},
	}
	if err := p.Verify(); err == nil {
		t.Fatal("cone not closed under dep edges must not verify")
	}
	p = &Provenance{Root: "a", Procedures: []string{"a"}, WarmRead: 2, WarmLoaded: 1}
	if err := p.Verify(); err == nil {
		t.Fatal("warm_read > warm_loaded must not verify")
	}
}

// TestJSONRoundTrip: the serialized artifact reloads with the
// schedule-invariant part intact.
func TestJSONRoundTrip(t *testing.T) {
	r := newRun()
	r.spawn(query.NoParent, 1, "main")
	r.spawn(1, 2, "f")
	f := &Frame{DB: &stubDB{s: mkSum("f", 0, 1)}}
	f.Answer(summary.Question{Proc: "f", Pre: g(0), Post: g(1)})
	r.punch(1, "main", f)
	p := r.f.Finish("Error Reachable")

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.StableBytes(), q.StableBytes()) {
		t.Fatalf("round trip changed stable bytes:\n%s\n%s", p.StableBytes(), q.StableBytes())
	}
	if q.SummaryReads != p.SummaryReads || len(q.Summaries) != len(p.Summaries) {
		t.Fatalf("round trip lost traffic: %+v vs %+v", q, p)
	}
	if err := q.Verify(); err != nil {
		t.Fatalf("reloaded record must verify: %v", err)
	}
}

// TestExplainMentionsCone: the human report names the verdict, the cone
// size, and the hot summaries.
func TestExplainMentionsCone(t *testing.T) {
	r := newRun()
	r.spawn(query.NoParent, 1, "main")
	r.spawn(1, 2, "f")
	fr := &Frame{DB: &stubDB{s: mkSum("f", 0, 1)}}
	fr.AnswerYes(summary.Question{Proc: "f", Pre: g(0), Post: g(1)})
	r.punch(1, "main", fr)
	p := r.f.Finish("Program is Safe")
	out := p.Explain()
	for _, want := range []string{"Program is Safe", "main", "2 procedure(s)", "hot summaries"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	var nilP *Provenance
	if out := nilP.Explain(); out == "" {
		t.Fatal("nil provenance must still explain itself")
	}
}
