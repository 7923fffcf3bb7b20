package summary

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/smt"
)

func v(name string) logic.Lin { return logic.LinVar(lang.Var(name)) }
func k(x int64) logic.Lin     { return logic.LinConst(x) }

func eqv(name string, x int64) logic.Formula { return logic.Eq(v(name), k(x)) }

func TestAnswerYesRule(t *testing.T) {
	db := New(smt.New())
	// must summary: from g=5, every exit state with g ≥ 6 is reachable.
	db.Add(Summary{Kind: Must, Proc: "p", Pre: eqv("g", 5), Post: logic.LEq(k(6), v("g"))})

	// Query whose Pre contains g=5 and whose Post intersects g≥6: yes.
	q := Question{Proc: "p", Pre: logic.LEq(k(0), v("g")), Post: logic.LEq(k(10), v("g"))}
	if _, ok := db.AnswerYes(q); !ok {
		t.Fatal("expected a yes answer")
	}
	// Pre not containing ψ1 (g ≤ 3 excludes g=5): no answer.
	q2 := Question{Proc: "p", Pre: logic.LEq(v("g"), k(3)), Post: logic.LEq(k(10), v("g"))}
	if _, ok := db.AnswerYes(q2); ok {
		t.Fatal("yes answer with uncovered precondition")
	}
	// Post disjoint from ψ2 (g ≤ 2): no answer.
	q3 := Question{Proc: "p", Pre: logic.LEq(k(0), v("g")), Post: logic.LEq(v("g"), k(2))}
	if _, ok := db.AnswerYes(q3); ok {
		t.Fatal("yes answer with disjoint postcondition")
	}
}

func TestAnswerNoRule(t *testing.T) {
	db := New(smt.New())
	// not-may: from g ≥ 0, no exit state with g ≤ -1 is reachable.
	db.Add(Summary{Kind: NotMay, Proc: "p", Pre: logic.LEq(k(0), v("g")), Post: logic.LEq(v("g"), k(-1))})

	// Query Pre ⊆ ψ1 and Post ⊆ ψ2: no (unreachable).
	q := Question{Proc: "p", Pre: eqv("g", 7), Post: logic.LEq(v("g"), k(-5))}
	if _, ok := db.AnswerNo(q); !ok {
		t.Fatal("expected a no answer")
	}
	// Pre outside ψ1: not answered.
	q2 := Question{Proc: "p", Pre: logic.LEq(v("g"), k(-2)), Post: logic.LEq(v("g"), k(-5))}
	if _, ok := db.AnswerNo(q2); ok {
		t.Fatal("no answer with uncovered precondition")
	}
	// Post outside ψ2: not answered.
	q3 := Question{Proc: "p", Pre: eqv("g", 7), Post: logic.LEq(v("g"), k(0))}
	if _, ok := db.AnswerNo(q3); ok {
		t.Fatal("no answer with uncovered postcondition")
	}
}

func TestAnswerCombined(t *testing.T) {
	db := New(smt.New())
	db.Add(Summary{Kind: Must, Proc: "p", Pre: eqv("g", 1), Post: eqv("g", 2)})
	db.Add(Summary{Kind: NotMay, Proc: "p", Pre: logic.True, Post: logic.LEq(k(100), v("g"))})

	if _, verdict := db.Answer(Question{Proc: "p", Pre: logic.True, Post: eqv("g", 2)}); verdict != 1 {
		t.Fatalf("verdict = %d, want +1", verdict)
	}
	if _, verdict := db.Answer(Question{Proc: "p", Pre: logic.True, Post: logic.LEq(k(200), v("g"))}); verdict != -1 {
		t.Fatalf("verdict = %d, want -1", verdict)
	}
	if _, verdict := db.Answer(Question{Proc: "p", Pre: eqv("g", 9), Post: eqv("g", 50)}); verdict != 0 {
		t.Fatalf("verdict = %d, want 0", verdict)
	}
}

func TestProcIsolation(t *testing.T) {
	db := New(smt.New())
	db.Add(Summary{Kind: NotMay, Proc: "p", Pre: logic.True, Post: logic.False})
	if _, ok := db.AnswerNo(Question{Proc: "other", Pre: logic.True, Post: logic.False}); ok {
		t.Fatal("summary leaked across procedures")
	}
	if len(db.ForProc("p")) != 1 || len(db.ForProc("other")) != 0 {
		t.Fatal("ForProc wrong")
	}
}

func TestDeduplication(t *testing.T) {
	db := New(smt.New())
	s := Summary{Kind: Must, Proc: "p", Pre: eqv("g", 1), Post: eqv("g", 2)}
	db.Add(s)
	db.Add(s)
	if db.Count() != 1 {
		t.Fatalf("Count = %d, want 1", db.Count())
	}
	if db.StatsSnapshot().DupesSkip != 1 {
		t.Fatal("duplicate not counted")
	}
}

func TestConcurrentUse(t *testing.T) {
	db := New(smt.New())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				db.Add(Summary{Kind: Must, Proc: "p", Pre: eqv("g", int64(i*100+j)), Post: eqv("g", 0)})
				db.Answer(Question{Proc: "p", Pre: logic.True, Post: eqv("g", 0)})
				db.ForProc("p")
			}
		}(i)
	}
	wg.Wait()
	if db.Count() != 400 {
		t.Fatalf("Count = %d, want 400", db.Count())
	}
	st := db.StatsSnapshot()
	if st.Added != 400 {
		t.Fatalf("Added = %d", st.Added)
	}
}

// TestDBHammer drives the DB from 32 goroutines mixing adds, answers
// and scans across seven procedures — run under -race this is the
// certificate of the one-lock-per-procedure design: the map lock, each
// procedure's lock over its append-only summary slice, dedup keys and
// memo, and the atomic counters. Final counts must be exact, every
// answer call must be counted once as a hit or a miss, and a memoized
// miss must never outlive the Add that answers it: each procedure has a
// twin whose questions only one summary answers, added mid-run while
// other goroutines scan the twin for fresh questions, and every one of
// those questions must be answered once the goroutines are done.
func TestDBHammer(t *testing.T) {
	db := New(smt.New())
	const goroutines = 32
	const perG = 40
	const procs = 7
	const base = 16
	twin := func(i int) string { return fmt.Sprintf("p%d-twin", i%procs) }
	// twinQ is fresh per (i, j), so each is a scan; only answer (pre
	// g = -7) answers it, no base summary (pre g <= -100) does.
	twinQ := func(i, j int) Question {
		return Question{Proc: twin(i), Pre: logic.Conj(logic.LEq(k(-7), v("g")), logic.LEq(v("g"), k(int64(i*1000+j)))), Post: logic.LEq(k(0), v("g"))}
	}
	answer := func(i int) Summary {
		return Summary{Kind: Must, Proc: twin(i), Pre: eqv("g", -7), Post: eqv("g", 7)}
	}
	for p := 0; p < procs; p++ {
		for m := 0; m < base; m++ {
			db.Add(Summary{Kind: Must, Proc: twin(p), Pre: eqv("g", int64(-100-m)), Post: eqv("g", 7)})
		}
	}
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", i%procs) // collide on procedures
			for j := 0; j < perG; j++ {
				db.Add(Summary{Kind: Must, Proc: proc, Pre: eqv("g", int64(i*1000+j)), Post: eqv("g", 0)})
				db.Add(Summary{Kind: Must, Proc: proc, Pre: eqv("g", int64(i*1000+j)), Post: eqv("g", 0)}) // dupe
				db.AnswerYes(Question{Proc: proc, Pre: logic.True, Post: eqv("g", 0)})
				db.AnswerNo(Question{Proc: proc, Pre: eqv("g", -1), Post: eqv("g", 99)})
				db.AnswerYes(twinQ(i, j))
				calls.Add(3)
				if i < procs && j == perG/2 {
					db.Add(answer(i))
				}
				db.ForProc(proc)
				db.Count()
				db.StatsSnapshot()
				if view := db.Procs(); len(view) > 2*procs {
					t.Errorf("Procs() read mid-run lists %d procedures, at most %d exist", len(view), 2*procs)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := len(db.Procs()); n != 2*procs {
		t.Fatalf("Procs() lists %d procedures, want %d", n, 2*procs)
	}
	for i := 0; i < goroutines; i++ {
		for j := 0; j < perG; j++ {
			if _, ok := db.AnswerYes(twinQ(i, j)); !ok {
				t.Fatalf("%v: a memoized miss outlived the Add of the summary answering it", twinQ(i, j))
			}
			calls.Add(1)
		}
	}
	want := int64(goroutines*perG + procs*(base+1))
	st := db.StatsSnapshot()
	if st.Added != want || int64(db.Count()) != want || int64(len(db.All())) != want {
		t.Fatalf("Added %d, Count %d, len(All) %d, want all %d", st.Added, db.Count(), len(db.All()), want)
	}
	if st.DupesSkip != goroutines*perG {
		t.Fatalf("DupesSkip = %d, want %d", st.DupesSkip, goroutines*perG)
	}
	if got := st.YesHits + st.NoHits + st.Misses; got != calls.Load() {
		t.Fatalf("yes %d + no %d + misses %d = %d, want one per answer call, %d",
			st.YesHits, st.NoHits, st.Misses, got, calls.Load())
	}
	if st.MemoHits == 0 || st.Misses == 0 || st.YesHits == 0 {
		t.Fatalf("stats %+v: the hammer missed a path", st)
	}
}

// TestMemoInvalidation: a memoized miss must be forgotten when Add lands
// a summary that can answer the question, and repeated identical
// questions must be served from the memo.
func TestMemoInvalidation(t *testing.T) {
	db := New(smt.New())
	q := Question{Proc: "p", Pre: eqv("g", 5), Post: logic.LEq(k(6), v("g"))}

	if _, ok := db.AnswerYes(q); ok {
		t.Fatal("answered before any summary")
	}
	// Re-ask: the negative result is memoized, still a miss.
	if _, ok := db.AnswerYes(q); ok {
		t.Fatal("answered before any summary (memoized)")
	}

	// Adding a summary must invalidate the memoized miss.
	db.Add(Summary{Kind: Must, Proc: "p", Pre: eqv("g", 5), Post: logic.LEq(k(6), v("g"))})
	if _, ok := db.AnswerYes(q); !ok {
		t.Fatal("stale memoized miss survived an Add")
	}

	// Positive answers are memoized; repeats must bump MemoHits (summaries
	// are never removed, so a hit can be replayed forever).
	before := db.StatsSnapshot().MemoHits
	for i := 0; i < 5; i++ {
		if _, ok := db.AnswerYes(q); !ok {
			t.Fatal("memoized hit lost")
		}
	}
	if after := db.StatsSnapshot().MemoHits; after < before+5 {
		t.Fatalf("MemoHits %d -> %d, want +5", before, after)
	}
}

// TestMemoAnswerNo: the memo also covers the not-may side.
func TestMemoAnswerNo(t *testing.T) {
	db := New(smt.New())
	q := Question{Proc: "p", Pre: eqv("g", 7), Post: logic.LEq(v("g"), k(-5))}
	if _, ok := db.AnswerNo(q); ok {
		t.Fatal("answered before any summary")
	}
	db.Add(Summary{Kind: NotMay, Proc: "p", Pre: logic.LEq(k(0), v("g")), Post: logic.LEq(v("g"), k(-1))})
	if _, ok := db.AnswerNo(q); !ok {
		t.Fatal("stale memoized miss survived an Add")
	}
	before := db.StatsSnapshot().MemoHits
	if _, ok := db.AnswerNo(q); !ok {
		t.Fatal("memoized hit lost")
	}
	if db.StatsSnapshot().MemoHits != before+1 {
		t.Fatal("repeat AnswerNo not served from memo")
	}
}

func TestStringFormats(t *testing.T) {
	s := Summary{Kind: Must, Proc: "p", Pre: logic.True, Post: logic.False}
	if got := fmt.Sprint(s); got == "" {
		t.Fatal("empty summary string")
	}
	if Must.String() != "must" || NotMay.String() != "not-may" {
		t.Fatal("kind strings wrong")
	}
}

// TestProcsStableView: Procs lists the procedures with summaries once
// each, in arrival order; a view taken earlier keeps its contents and is
// a prefix of a later one; and reading it allocates nothing.
func TestProcsStableView(t *testing.T) {
	db := New(nil)
	if len(db.Procs()) != 0 {
		t.Fatalf("an empty database lists %v", db.Procs())
	}
	for i, p := range []string{"m", "c", "x", "c", "a"} {
		db.Add(Summary{Kind: NotMay, Proc: p, Pre: eqv("g", int64(i)), Post: logic.True})
	}
	before := db.Procs()
	db.Add(Summary{Kind: NotMay, Proc: "k", Pre: logic.True, Post: logic.True})
	if want := []string{"m", "c", "x", "a"}; !slices.Equal(before, want) {
		t.Errorf("view before the new procedure reads %v, want %v", before, want)
	}
	if got, want := db.Procs(), []string{"m", "c", "x", "a", "k"}; !slices.Equal(got, want) {
		t.Errorf("Procs() = %v, want %v", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { db.Procs() }); a != 0 {
		t.Errorf("Procs allocates %.1f times, want 0", a)
	}
}

// TestAddProcsLinear: the bytes a new procedure costs do not grow with
// the procedures already present. Listing the procedures by copying a
// sorted list on every arrival cost 2.2 KB a procedure at 100
// procedures and 46 KB at 4 000 (181 MB in all); the append-only list
// costs about 0.6 KB at either.
func TestAddProcsLinear(t *testing.T) {
	perProc := func(n int) float64 {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%05d", (i*7919)%n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db := New(nil)
		for _, name := range names {
			db.Add(Summary{Kind: NotMay, Proc: name, Pre: logic.True, Post: logic.True})
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perProc(100), perProc(4000)
	t.Logf("%.0f bytes a procedure at 100 procedures, %.0f at 4 000", small, large)
	if large > 2*small {
		t.Errorf("a procedure costs %.0f bytes among 4 000, %.0f among 100: adding one grows with the database", large, small)
	}
}
