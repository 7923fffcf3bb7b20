package summary

import (
	"fmt"
	"sync"
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

// TestShardedDBHammer drives the sharded DB from 32 goroutines mixing
// adds, answers and scans across many procedures — run under -race this
// exercises the striped locks, the append-only summary slices and the
// per-procedure memo. Final counts must be exact.
func TestShardedDBHammer(t *testing.T) {
	db := New(smt.New())
	const goroutines = 32
	const perG = 40
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := fmt.Sprintf("p%d", i%7) // collide on procedures and shards
			for j := 0; j < perG; j++ {
				db.Add(Summary{Kind: Must, Proc: proc, Pre: eqv("g", int64(i*1000+j)), Post: eqv("g", 0)})
				db.Add(Summary{Kind: Must, Proc: proc, Pre: eqv("g", int64(i*1000+j)), Post: eqv("g", 0)}) // dupe
				db.AnswerYes(Question{Proc: proc, Pre: logic.True, Post: eqv("g", 0)})
				db.AnswerNo(Question{Proc: proc, Pre: eqv("g", -1), Post: eqv("g", 99)})
				db.ForProc(proc)
				db.Count()
			}
		}(i)
	}
	wg.Wait()
	want := int64(goroutines * perG)
	if got := int64(db.Count()); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	st := db.StatsSnapshot()
	if st.Added != want {
		t.Fatalf("Added = %d, want %d", st.Added, want)
	}
	if st.DupesSkip != want {
		t.Fatalf("DupesSkip = %d, want %d", st.DupesSkip, want)
	}
	if got := len(db.All()); got != int(want) {
		t.Fatalf("All() = %d summaries, want %d", got, want)
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

// TestPerShardTraffic: the stats snapshot breaks answering traffic down
// by lock stripe, and the per-shard rows sum to the global counters.
func TestPerShardTraffic(t *testing.T) {
	db := New(smt.New())
	procs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, p := range procs {
		db.Add(Summary{Kind: Must, Proc: p, Pre: eqv("g", 5), Post: logic.LEq(k(6), v("g"))})
	}
	for _, p := range procs {
		q := Question{Proc: p, Pre: logic.LEq(k(0), v("g")), Post: logic.LEq(k(10), v("g"))}
		if _, ok := db.AnswerYes(q); !ok {
			t.Fatalf("proc %s: expected a yes answer", p)
		}
		// A query for an unknown procedure is a miss on that stripe.
		miss := Question{Proc: p + "_unknown", Pre: eqv("g", 1), Post: eqv("g", 2)}
		if _, ok := db.AnswerYes(miss); ok {
			t.Fatalf("proc %s_unknown: unexpected answer", p)
		}
	}
	st := db.StatsSnapshot()
	if len(st.PerShard) == 0 {
		t.Fatal("no per-shard rows")
	}
	var yes, no, misses, memo int64
	var summaries int
	for _, sh := range st.PerShard {
		if sh.Shard < 0 || sh.Shard >= numShards {
			t.Fatalf("shard index %d out of range", sh.Shard)
		}
		yes += sh.YesHits
		no += sh.NoHits
		misses += sh.Misses
		memo += sh.MemoHits
		summaries += sh.Summaries
	}
	if yes != st.YesHits || no != st.NoHits || misses != st.Misses || memo != st.MemoHits {
		t.Errorf("per-shard traffic (yes %d no %d miss %d memo %d) does not sum to globals (%d %d %d %d)",
			yes, no, misses, memo, st.YesHits, st.NoHits, st.Misses, st.MemoHits)
	}
	if summaries != db.Count() {
		t.Errorf("per-shard summaries %d, want %d", summaries, db.Count())
	}
	if st.Misses == 0 {
		t.Error("expected at least one miss")
	}
}
