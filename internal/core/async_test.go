package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
)

func runAsyncSrc(t *testing.T, src string, threads int) Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    threads,
		MaxIterations: 3000,
		CheckContract: true,
		Async:         true,
	})
	return eng.Run(AssertionQuestion(prog))
}

func TestAsyncEngineBasics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want Verdict
	}{
		{"safe-straight", `proc main { locals x; x = 1; assert(x > 0); }`, Safe},
		{"buggy-straight", `proc main { locals x; x = 1; assert(x > 5); }`, ErrorReachable},
		{"safe-calls", `globals g;
			proc main { g = 5; bump(); assert(g >= 6); }
			proc bump { g = g + 1; }`, Safe},
		{"buggy-calls", `globals g;
			proc main { g = 5; bump(); assert(g >= 7); }
			proc bump { g = g + 1; }`, ErrorReachable},
		{"safe-diamond", `globals g, c;
			proc main { havoc c; g = 0; if (c > 0) { left(); } else { right(); } assert(g <= 3); }
			proc left { shared(); }
			proc right { shared(); g = g + 1; }
			proc shared { g = g + 2; }`, Safe},
		{"safe-nested", `globals a, b;
			proc main { a = 0; b = 0; level1(); assert(a + b <= 4); }
			proc level1 { a = a + 1; level2(); a = a + 1; }
			proc level2 { b = b + 1; level3(); }
			proc level3 { b = b + 1; }`, Safe},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, threads := range []int{1, 2, 8} {
				res := runAsyncSrc(t, c.src, threads)
				if res.Verdict != c.want {
					t.Errorf("threads=%d: verdict %v, want %v (%+v)", threads, res.Verdict, c.want, res)
				}
			}
		})
	}
}

// TestAsyncToyProgram runs the §2.1 toy under the streaming engine across
// thread counts.
func TestAsyncToyProgram(t *testing.T) {
	for _, threads := range []int{1, 4, 16} {
		res := runAsyncSrc(t, toySource(), threads)
		if res.Verdict != Safe {
			t.Fatalf("threads=%d: verdict = %v", threads, res.Verdict)
		}
	}
}

// TestCorpusAllEnginesConfluence asserts that the barrier engine, the
// streaming engine and the distributed simulation all return the expected verdict on every corpus
// program — the confluence obligation of §3.3 extended to every engine
// this repository ships.
func TestCorpusAllEnginesConfluence(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want := Unknown
			switch {
			case strings.HasPrefix(name, "safe_"):
				want = Safe
			case strings.HasPrefix(name, "bug_"):
				want = ErrorReachable
			default:
				t.Fatalf("corpus file %s has no verdict prefix", name)
			}
			configs := map[string]Options{
				"barrier": {MaxThreads: 8},
				"async":   {MaxThreads: 8, Async: true},
			}
			for cname, o := range configs {
				o.Punch = maymust.New()
				o.MaxIterations = 60000
				o.CheckContract = true
				res := New(prog, o).Run(AssertionQuestion(prog))
				if res.Verdict != want {
					t.Errorf("%s: verdict %v, want %v", cname, res.Verdict, want)
				}
			}
			dres := NewDistributed(prog, DistOptions{
				Punch:          maymust.New(),
				Nodes:          3,
				ThreadsPerNode: 4,
				MaxRounds:      1 << 18,
			}).Run(AssertionQuestion(prog))
			if dres.Verdict != want {
				t.Errorf("distributed: verdict %v, want %v", dres.Verdict, want)
			}
		})
	}
}

// TestAsyncInstrumentation: the streaming engine must provide the same
// Result/IterSample instrumentation contract as the barrier engine —
// the trace holds one sample per completion event, as many as the event
// stream closes punch spans, with a monotone done count and an advancing
// virtual clock.
func TestAsyncInstrumentation(t *testing.T) {
	prog := parser.MustParse(`globals g;
proc main { g = 0; inc(); assert(g <= 1); }
proc inc { g = g + 1; }`)
	rec := &obs.Recording{}
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    4,
		MaxIterations: 2000,
		Async:         true,
		Tracer:        rec,
	}).Run(AssertionQuestion(prog))
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	spans := 0
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvPunchEnd {
			spans++
		}
	}
	if spans != len(res.Trace) {
		t.Fatalf("stream closes %d punch spans, trace has %d samples", spans, len(res.Trace))
	}
	var lastDone int64 = -1
	for i, s := range res.Trace {
		if s.Processed != 1 {
			t.Errorf("sample %d: Processed = %d, want 1 per completion event", i, s.Processed)
		}
		if s.DoneSoFar < lastDone {
			t.Errorf("sample %d: DoneSoFar regressed %d -> %d", i, lastDone, s.DoneSoFar)
		}
		lastDone = s.DoneSoFar
	}
	if res.VirtualTicks <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	if res.Iterations != len(res.Trace) {
		t.Fatalf("Iterations = %d, trace = %d", res.Iterations, len(res.Trace))
	}
	if res.PeakLive < 2 {
		t.Fatalf("PeakLive = %d, want >= 2 (root + child)", res.PeakLive)
	}
}

// TestAsyncTickBudget: exhausting the virtual-tick budget must yield
// Unknown with a budget stop, never a guessed verdict.
func TestAsyncTickBudget(t *testing.T) {
	prog := parser.MustParse(relationalToySource())
	res := New(prog, Options{
		Punch:           maymust.New(),
		MaxThreads:      4,
		MaxIterations:   1 << 19,
		MaxVirtualTicks: 50,
		Async:           true,
	}).Run(AssertionQuestion(prog))
	if res.Verdict == ErrorReachable {
		t.Fatalf("wrong verdict on budget exhaustion: %v", res.Verdict)
	}
	if res.Verdict == Unknown && !res.StopReason.Exhausted() {
		t.Fatalf("Unknown without a budget stop: %v", res.StopReason)
	}
}

// TestAsyncEventBudget: the event budget (MaxIterations × MaxThreads)
// bounds the run like the barrier engine's iteration budget.
func TestAsyncEventBudget(t *testing.T) {
	prog := parser.MustParse(relationalToySource())
	res := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    2,
		MaxIterations: 3,
		Async:         true,
	}).Run(AssertionQuestion(prog))
	if res.Verdict == ErrorReachable {
		t.Fatalf("unsound verdict under tiny budget: %v", res.Verdict)
	}
	if res.Iterations > 3*2+2 {
		t.Fatalf("event budget not enforced: %d events", res.Iterations)
	}
}

// TestCoreClock validates the event-driven virtual clock against the
// batch makespan arithmetic it replaces: feeding the same costs one by
// one must yield the greedy list-scheduling makespan.
func TestCoreClock(t *testing.T) {
	cases := []struct {
		costs []int64
		cores int
		want  int64
	}{
		{[]int64{5, 3, 2}, 1, 10},
		{[]int64{4, 4, 4, 4}, 2, 8},
		{[]int64{9, 1, 1, 1}, 2, 9},
		{[]int64{1, 2, 3, 4, 5}, 3, 7}, // greedy list scheduling, not OPT
	}
	for _, c := range cases {
		clk := newCoreClock(c.cores, 0)
		var got int64
		for _, cost := range c.costs {
			got = clk.assign(cost)
		}
		if got != c.want {
			t.Errorf("coreClock(%v, %d cores) = %d, want %d", c.costs, c.cores, got, c.want)
		}
		if got != makespan(c.costs, c.cores) {
			t.Errorf("coreClock disagrees with makespan on %v/%d", c.costs, c.cores)
		}
	}
}
