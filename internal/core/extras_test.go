package core

import (
	"math/rand"
	"testing"

	"repro/internal/drivers"
	"repro/internal/interp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/must"
	"repro/internal/summary"
)

// TestEngineConfluence: sequential, parallel, streaming and cluster
// configurations must agree on verdicts.
func TestEngineConfluence(t *testing.T) {
	cases := []struct {
		src  string
		want Verdict
	}{
		{`proc main { locals x; x = 2; assert(x > 1); }`, Safe},
		{`proc main { locals x; havoc x; assume(x > 3); assert(x > 4); }`, ErrorReachable},
		{`globals g;
		  proc main { g = 0; inc(); inc(); assert(g <= 2); }
		  proc inc { g = g + 1; }`, Safe},
		{`globals g;
		  proc main { g = 0; inc(); inc(); assert(g <= 1); }
		  proc inc { g = g + 1; }`, ErrorReachable},
	}
	configs := []Options{
		{MaxThreads: 1},
		{MaxThreads: 4},
		{MaxThreads: 4, Async: true},
	}
	for ci, c := range cases {
		prog := parser.MustParse(c.src)
		for oi, o := range configs {
			o.Punch = maymust.New()
			o.MaxIterations = 3000
			o.CheckContract = true
			res := New(prog, o).Run(AssertionQuestion(prog))
			if res.Verdict != c.want {
				t.Errorf("case %d config %d: verdict %v, want %v", ci, oi, res.Verdict, c.want)
			}
		}
		// The fourth configuration is a 3-node cluster (contract checked:
		// distCheckContract).
		dres := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 3, ThreadsPerNode: 2, MaxRounds: 3000}).
			Run(AssertionQuestion(prog))
		if dres.Verdict != c.want {
			t.Errorf("case %d cluster: verdict %v, want %v", ci, dres.Verdict, c.want)
		}
	}
}

// TestCrossAnalysisAgreement: on bug-finding, all three instantiations
// agree (must cannot prove safety, so Safe cases check may-must vs may on
// call-free programs only).
func TestCrossAnalysisAgreement(t *testing.T) {
	buggy := []string{
		`proc main { locals x; x = 3; assert(x < 3); }`,
		`proc main { locals x; havoc x; if (x > 10) { assert(x <= 10); } }`,
		`globals g; proc main { g = 1; dec(); assert(g >= 1); } proc dec { g = g - 1; }`,
	}
	for i, src := range buggy {
		prog := parser.MustParse(src)
		for name, p := range map[string]Options{
			"maymust": {Punch: maymust.New()},
			"may":     {Punch: may.New()},
			"must":    {Punch: must.New()},
		} {
			p.MaxThreads = 2
			p.MaxIterations = 2000
			p.CheckContract = true
			res := New(prog, p).Run(AssertionQuestion(prog))
			if res.Verdict != ErrorReachable {
				t.Errorf("buggy %d under %s: %v", i, name, res.Verdict)
			}
		}
	}
}

// TestVerdictsMatchConcreteOracle: property test against the interpreter
// on generated drivers — Safe verdicts must never be contradicted by a
// concrete failing run, and ErrorReachable verdicts must be witnessed by
// at least one concrete failure within a generous search.
func TestVerdictsMatchConcreteOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle comparison is not short")
	}
	checks := []struct {
		driver, prop string
		buggy        bool
	}{
		{"parport", "PnpIrpCompletion", false},
		{"parport", "IoAllocateFree", true},
		{"drv10", "NsRemoveLockMnRemove", false},
		{"drv12", "MarkPowerDown", true},
	}
	for _, c := range checks {
		prog := drivers.Generate(drivers.NamedCheck(c.driver, c.prop, c.buggy).Config)
		res := New(prog, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 40000}).
			Run(AssertionQuestion(prog))
		concreteFails := false
		for seed := int64(0); seed < 300 && !concreteFails; seed++ {
			r := interp.Run(prog, interp.Options{Rand: rand.New(rand.NewSource(seed)), MaxSteps: 50000})
			concreteFails = r.Completed && r.Final[parser.ErrVar] != 0
		}
		switch res.Verdict {
		case Safe:
			if concreteFails {
				t.Errorf("%s/%s buggy=%v: Safe verdict contradicted concretely", c.driver, c.prop, c.buggy)
			}
		case ErrorReachable:
			if !concreteFails {
				t.Errorf("%s/%s buggy=%v: ErrorReachable not witnessed in 300 runs", c.driver, c.prop, c.buggy)
			}
		default:
			t.Errorf("%s/%s buggy=%v: inconclusive (%v)", c.driver, c.prop, c.buggy, res.Verdict)
		}
	}
}

// TestMakespan validates the virtual-clock scheduling arithmetic.
func TestMakespan(t *testing.T) {
	cases := []struct {
		costs []int64
		n     int
		want  int64
	}{
		{[]int64{5, 3, 2}, 1, 10},
		{[]int64{5, 3, 2}, 3, 5},
		{[]int64{5, 3, 2}, 8, 5},
		{[]int64{4, 4, 4, 4}, 2, 8},
		{[]int64{9, 1, 1, 1}, 2, 9},
		{nil, 4, 0},
	}
	for _, c := range cases {
		if got := makespan(c.costs, c.n); got != c.want {
			t.Errorf("makespan(%v, %d) = %d, want %d", c.costs, c.n, got, c.want)
		}
	}
}

// TestSequentialDeterminism: identical runs must produce identical
// virtual time and query counts.
func TestSequentialDeterminism(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("parport", "PnpIrpCompletion", false).Config)
	run := func() Result {
		return New(prog, Options{Punch: maymust.New(), MaxThreads: 1, MaxIterations: 40000}).
			Run(AssertionQuestion(prog))
	}
	a, b := run(), run()
	if a.VirtualTicks != b.VirtualTicks || a.TotalQueries != b.TotalQueries || a.Verdict != b.Verdict {
		t.Fatalf("nondeterministic sequential run: %+v vs %+v", a, b)
	}
}

// TestFrameRuleOnSummaries: summaries for a callee must not mention
// globals the callee neither touches nor the question constrains — the
// mod/ref frame rule that keeps summaries reusable across calling
// contexts.
func TestFrameRuleOnSummaries(t *testing.T) {
	prog := parser.MustParse(`
globals a, b, unrelated;
proc main {
  unrelated = 77;
  a = 1;
  bump();
  assert(a <= 2);
}
proc bump { a = a + 1; b = a; }`)
	res := New(prog, Options{Punch: maymust.New(), MaxThreads: 2, MaxIterations: 4000}).
		Run(AssertionQuestion(prog))
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	found := false
	for _, s := range res.Summaries {
		if s.Proc != "bump" {
			continue
		}
		found = true
		for _, v := range logic.FreeVars(s.Pre) {
			if v == "unrelated" {
				t.Errorf("summary pre pins the unrelated global: %v", s)
			}
		}
		for _, v := range logic.FreeVars(s.Post) {
			if v == "unrelated" {
				t.Errorf("summary post pins the unrelated global: %v", s)
			}
		}
	}
	if !found {
		t.Fatal("no summaries for bump recorded")
	}
}

// TestBarrierTraceMatchesEvents: the barrier engine's Result.Trace is one
// sample per round, and it agrees with the event stream of the same run:
// each round handles as many queries as punch spans close in it, its
// stage starts where the previous one ended, and the last ends at the
// run's virtual time.
func TestBarrierTraceMatchesEvents(t *testing.T) {
	prog := parser.MustParse(`globals g;
proc main { g = 0; inc(); assert(g <= 1); }
proc inc { g = g + 1; }`)
	rec := &obs.Recording{}
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    2,
		MaxIterations: 2000,
		Tracer:        rec,
	}).Run(AssertionQuestion(prog))
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Trace) == 0 || res.Iterations != len(res.Trace) {
		t.Fatalf("%d samples over %d iterations", len(res.Trace), res.Iterations)
	}
	ends := map[int64]int{} // punch-end vtime -> spans closed there
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvPunchEnd {
			ends[ev.VTime]++
		}
	}
	var vtime int64
	for i, s := range res.Trace {
		if s.Iter != i || s.VTime != vtime {
			t.Fatalf("sample %d: iter %d at vtime %d, want %d at %d", i, s.Iter, s.VTime, i, vtime)
		}
		if s.Processed == 0 || s.Processed > 2 || s.Processed > s.Ready {
			t.Fatalf("sample %d: %d processed of %d ready", i, s.Processed, s.Ready)
		}
		vtime += s.StageCost
		if ends[vtime] != s.Processed {
			t.Fatalf("sample %d: %d spans end at vtime %d, want %d", i, ends[vtime], vtime, s.Processed)
		}
	}
	if vtime != res.VirtualTicks {
		t.Fatalf("trace ends at vtime %d, the run at %d", vtime, res.VirtualTicks)
	}
}

// TestNotMayPreCoversWholeEntryRegions: a proof holds for the whole entry
// regions its search started from, and the not-may summary says so. Every
// question about clear carries main's context (r = 0, g = 5), but clear's
// proof never splits its entry region, so its summaries claim every entry
// state: later questions from other contexts are answered by them.
func TestNotMayPreCoversWholeEntryRegions(t *testing.T) {
	prog := parser.MustParse(`globals g, r;
proc main { g = 5; r = 0; clear(); assert(r == 0); }
proc clear { r = 0; }`)
	for name, p := range map[string]punch.Punch{"may": may.New(), "may-must": maymust.New()} {
		res := New(prog, Options{Punch: p, MaxThreads: 1, MaxIterations: 2000}).Run(AssertionQuestion(prog))
		if res.Verdict != Safe {
			t.Fatalf("%s: verdict %v", name, res.Verdict)
		}
		found := false
		for _, s := range res.Summaries {
			if s.Kind != summary.NotMay || s.Proc != "clear" {
				continue
			}
			found = true
			if s.Pre != logic.Formula(logic.True) {
				t.Errorf("%s: summary %v claims less than clear's unsplit entry region", name, s)
			}
		}
		if !found {
			t.Errorf("%s: no not-may summary of clear", name)
		}
	}
}
