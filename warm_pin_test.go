package bolt_test

import (
	"runtime"
	"testing"

	bolt "repro"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/logic"
	"repro/internal/parser"
)

// warmRecheckBudget is what one re-check of parport/PowerDownFail from
// source text may allocate when the store's verdict is reused (parse,
// open the store, snapshot the program, plan, answer): the 69.5 KB
// measured when the front end came to read the source once, the store to
// open without copying summaries or decoding provenance it was not asked
// for and the snapshot to render through one printer (127.6 KB before;
// 240.0 KB when the open decoded every summary's formulas, the snapshot
// rendered every edge through fmt, the plan decoded the formulas of every
// provenance read, the lexer copied the source into runes and the program
// was rendered for a fingerprint nobody used), plus 10 %. A re-check now
// allocates 73.9 KB, since the open copies the provenance and manifest
// payloads out of the log buffer, so that it keeps one copy of the log,
// and decodes the manifest to check it. The figure repeats to the byte
// between runs.
const warmRecheckBudget = 76_430

// TestWarmRecheckPin holds a re-check that reuses its verdict to the work
// whose result it uses. Such a re-check of parport/PowerDownFail, from
// source text to verdict,
//   - interns nothing beyond the root question: it decodes no summary
//     and no read of a provenance record;
//   - never renders the program (cfg.Program.String), which only a
//     store that is not incremental is fingerprinted by;
//   - allocates no more than warmRecheckBudget.
func TestWarmRecheckPin(t *testing.T) {
	src := drivers.Source(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	opts := bolt.Options{Threads: 1, StorePath: t.TempDir(), Incremental: true}
	if r := bolt.MustParse(src).Check(opts); r.Verdict != bolt.Safe || r.ReusedVerdict || r.StoreErr != nil {
		t.Fatalf("cold check: %v, reused %v, store error %v", r.Verdict, r.ReusedVerdict, r.StoreErr)
	}
	recheck := func() {
		t.Helper()
		if r := bolt.MustParse(src).Check(opts); r.Verdict != bolt.Safe || !r.ReusedVerdict || r.StoreErr != nil {
			t.Fatalf("re-check: %v, reused %v, store error %v", r.Verdict, r.ReusedVerdict, r.StoreErr)
		}
	}
	recheck()

	// The check that ended last dropped the intern table, so the root
	// question is built into an empty one, as the re-check builds it.
	misses := func() int64 { _, m := logic.InternStats(); return m }
	m0 := misses()
	core.AssertionQuestion(parser.MustParse(src))
	question := misses() - m0
	logic.BeginRun()
	logic.EndRun()
	m0 = misses()
	recheck()
	if got := misses() - m0; got > question {
		t.Errorf("a reused-verdict re-check interns %d formulas or terms, building its root question %d: it decodes formulas it does not use", got, question)
	}

	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	before := allocsUnder("repro/internal/cfg.(*Program).String")
	recheck()
	after := allocsUnder("repro/internal/cfg.(*Program).String")
	runtime.MemProfileRate = rate
	if after != before {
		t.Errorf("a reused-verdict re-check renders the program (cfg.Program.String): %d allocations under it", after-before)
	}

	const n = 20
	var m0s, m1s runtime.MemStats
	runtime.ReadMemStats(&m0s)
	for i := 0; i < n; i++ {
		recheck()
	}
	runtime.ReadMemStats(&m1s)
	per := (m1s.TotalAlloc - m0s.TotalAlloc) / n
	t.Logf("a re-check allocates %d bytes (budget %d)", per, warmRecheckBudget)
	if raceEnabled() {
		t.Skip("the budget is not held under the race detector")
	}
	if per > warmRecheckBudget {
		t.Errorf("a reused-verdict re-check allocates %d bytes, budget %d", per, warmRecheckBudget)
	}
}

// allocsUnder counts the allocations the memory profile has recorded so
// far with fn on the stack. Profiles are published by the collector, two
// cycles late at most.
func allocsUnder(fn string) int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == fn {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
