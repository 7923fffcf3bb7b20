package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/summary"
)

// incrTestProg has a procedure (idle) the root never reaches, so an
// edit to it must not force a re-run, and a shared helper chain whose
// edits invalidate exactly the reverse cone.
const incrTestProg = `program it;
globals acc;
proc main { locals c; havoc c; acc = 0; if (c > 0) { left(); } else { right(); } assert(acc <= 5); }
proc left { acc = acc + 1; deep(); }
proc right { acc = acc + 2; }
proc deep { acc = acc + 1; }
proc idle { acc = 0; }
`

func incrOpts(st store.Store, async bool) Options {
	return Options{
		Punch:         maymust.New(),
		MaxThreads:    8,
		MaxIterations: 60000,
		Async:         async,
		Store:         st,
		Incremental:   true,
	}
}

func TestIncrementalRecheck(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "barrier"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			prog := parser.MustParse(incrTestProg)
			q0 := AssertionQuestion(prog)
			st := store.NewMem()

			// First incremental run: no manifest, full invalidation of an
			// empty store, runs cold and persists everything.
			cold := New(prog, incrOpts(st, async)).Run(q0)
			if cold.Verdict != Safe || cold.StoreErr != nil {
				t.Fatalf("cold: verdict %v, store err %v", cold.Verdict, cold.StoreErr)
			}
			if cold.ReusedVerdict || len(cold.EditedProcs) != 5 {
				t.Fatalf("cold: reused=%v edited=%v, want full-program edit set", cold.ReusedVerdict, cold.EditedProcs)
			}
			if cold.PersistedSummaries == 0 {
				t.Fatal("cold run persisted nothing")
			}

			// Unchanged program: the verdict must be reused without a run.
			again := New(prog, incrOpts(st, async)).Run(q0)
			if !again.ReusedVerdict || again.Verdict != Safe || again.StopReason != StopVerdictReused {
				t.Fatalf("unchanged: reused=%v verdict=%v stop=%v", again.ReusedVerdict, again.Verdict, again.StopReason)
			}
			if again.VirtualTicks != 0 || again.SurvivingSummaries == 0 {
				t.Fatalf("unchanged: ticks=%d surviving=%d", again.VirtualTicks, again.SurvivingSummaries)
			}

			// Edit a procedure the root never reaches: still reused.
			mutIdle, err := incr.MutateSource(incrTestProg, "idle", 3)
			if err != nil {
				t.Fatal(err)
			}
			progIdle := parser.MustParse(mutIdle)
			idle := New(progIdle, incrOpts(st, async)).Run(AssertionQuestion(progIdle))
			if !idle.ReusedVerdict || idle.Verdict != Safe {
				t.Fatalf("idle edit: reused=%v verdict=%v", idle.ReusedVerdict, idle.Verdict)
			}
			if len(idle.EditedProcs) != 1 || idle.EditedProcs[0] != "idle" {
				t.Fatalf("idle edit: edited=%v, want [idle]", idle.EditedProcs)
			}

			// Edit deep: the cone {deep, left, main} is stale, right and
			// idle survive, and the re-check verdict stays confluent.
			// (The store's manifest is now progIdle's, so mutate on top.)
			mutDeep, err := incr.MutateSource(mutIdle, "deep", 5)
			if err != nil {
				t.Fatal(err)
			}
			progDeep := parser.MustParse(mutDeep)
			re := New(progDeep, incrOpts(st, async)).Run(AssertionQuestion(progDeep))
			if re.ReusedVerdict {
				t.Fatal("deep edit reaches the root, must not reuse the verdict")
			}
			if re.Verdict != Safe || re.StoreErr != nil {
				t.Fatalf("deep edit: verdict %v, store err %v", re.Verdict, re.StoreErr)
			}
			if len(re.EditedProcs) != 1 || re.EditedProcs[0] != "deep" {
				t.Fatalf("deep edit: edited=%v, want [deep]", re.EditedProcs)
			}
			if re.InvalidatedSummaries == 0 {
				t.Fatal("deep edit invalidated nothing")
			}
			if re.SurvivingSummaries == 0 {
				t.Fatal("deep edit should leave right/idle summaries alive")
			}
			// Confluence with a from-scratch run.
			scratch := New(progDeep, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000, Async: async}).Run(AssertionQuestion(progDeep))
			if scratch.Verdict != re.Verdict {
				t.Fatalf("re-check verdict %v, from-scratch %v", re.Verdict, scratch.Verdict)
			}
		})
	}
}

// TestIncrementalRecheckDistributed mirrors the shared-memory test on
// the simulated cluster and checks the invalidation routing.
func TestIncrementalRecheckDistributed(t *testing.T) {
	prog := parser.MustParse(incrTestProg)
	q0 := AssertionQuestion(prog)
	st := store.NewMem()
	dopts := func() DistOptions {
		return DistOptions{
			Punch:          maymust.New(),
			Nodes:          3,
			ThreadsPerNode: 4,
			Store:          st,
			Incremental:    true,
		}
	}
	cold := NewDistributed(prog, dopts()).Run(q0)
	if cold.Verdict != Safe || cold.StoreErr != nil {
		t.Fatalf("cold: verdict %v, store err %v", cold.Verdict, cold.StoreErr)
	}
	again := NewDistributed(prog, dopts()).Run(q0)
	if !again.ReusedVerdict || again.Verdict != Safe || again.StopReason != StopVerdictReused {
		t.Fatalf("unchanged: reused=%v verdict=%v stop=%v", again.ReusedVerdict, again.Verdict, again.StopReason)
	}
	mut, err := incr.MutateSource(incrTestProg, "deep", 5)
	if err != nil {
		t.Fatal(err)
	}
	prog2 := parser.MustParse(mut)
	re := NewDistributed(prog2, dopts()).Run(AssertionQuestion(prog2))
	if re.ReusedVerdict || re.Verdict != Safe || re.StoreErr != nil {
		t.Fatalf("deep edit: reused=%v verdict=%v err=%v", re.ReusedVerdict, re.Verdict, re.StoreErr)
	}
	if re.InvalidatedSummaries == 0 || re.SurvivingSummaries == 0 {
		t.Fatalf("deep edit: invalidated=%d surviving=%d", re.InvalidatedSummaries, re.SurvivingSummaries)
	}
	routed := 0
	for _, n := range re.PerNodeInvalidated {
		routed += n
	}
	if routed != re.InvalidatedSummaries {
		t.Fatalf("per-node invalidation %v sums to %d, want %d", re.PerNodeInvalidated, routed, re.InvalidatedSummaries)
	}
}

// TestRecheckAfterCrashMatchesFromScratch is the from-scratch-consistency
// oracle pointed at the store's crash model. A corpus program is checked
// cold and persisted; one procedure is then edited so that the verdict
// flips (every stored summary in its cone is now wrong, not merely
// stale), and the re-check that invalidates and re-derives is cut short
// at every record boundary it appended. Whatever prefix survives, the
// next incremental re-check must answer what a from-scratch run answers.
func TestRecheckAfterCrashMatchesFromScratch(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/corpus/safe_shared_helper.bolt")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	edited := strings.Replace(src, "proc addtwo { acc = acc + 2; }", "proc addtwo { acc = acc + 3; }", 1)
	if edited == src {
		t.Fatal("the corpus program no longer has the procedure this test edits")
	}
	before, after := parser.MustParse(src), parser.MustParse(edited)
	fp := store.NewFingerprint("crash-recheck")
	recheck := func(dir string, prog *cfg.Program) Result {
		t.Helper()
		d, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		res := New(prog, incrOpts(d, false)).Run(AssertionQuestion(prog))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if res.StoreErr != nil {
			t.Fatalf("store error: %v", res.StoreErr)
		}
		return res
	}

	scratch := New(after, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000}).Run(AssertionQuestion(after))
	if scratch.Verdict != ErrorReachable {
		t.Fatalf("from-scratch verdict on the edited program: %v, want the edit to flip it", scratch.Verdict)
	}

	dir := t.TempDir()
	log := filepath.Join(dir, store.SegName)
	if cold := recheck(dir, before); cold.Verdict != Safe || cold.PersistedSummaries == 0 {
		t.Fatalf("cold: verdict %v, persisted %d", cold.Verdict, cold.PersistedSummaries)
	}
	persisted, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if re := recheck(dir, after); re.Verdict != scratch.Verdict || re.InvalidatedSummaries == 0 {
		t.Fatalf("uninterrupted re-check: verdict %v, invalidated %d", re.Verdict, re.InvalidatedSummaries)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}

	// Everything past the cold run's bytes is what the re-check appended:
	// tombstones, the retraction of the standing verdict, the new manifest,
	// fresh summaries, provenance. Walk its framing (uvarint length,
	// payload, 4-byte checksum).
	cuts := []int{int(persisted.Size())}
	kinds := ""
	for pos := cuts[0]; pos < len(data); {
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatalf("bad record length at offset %d", pos)
		}
		kinds += string(data[pos+n])
		pos += n + int(plen) + 4
		cuts = append(cuts, pos)
	}
	if cuts[len(cuts)-1] != len(data) || !regexp.MustCompile(`^T+PMS+P$`).MatchString(kinds) {
		t.Fatalf("the re-check appended records %q ending at %d of %d bytes, want T.. P M S.. P", kinds, cuts[len(cuts)-1], len(data))
	}
	for _, cut := range cuts {
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, store.SegName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if re := recheck(crashed, after); re.Verdict != scratch.Verdict {
			t.Fatalf("log cut at %d (%d of %d appended records survive): re-check says %v, from scratch %v",
				cut, sort.SearchInts(cuts, cut), len(cuts)-1, re.Verdict, scratch.Verdict)
		}
	}
}

// TestEditRetractsEveryAffectedVerdict: one store answers several root
// questions, and an edit re-checked under one of them must not leave
// another's verdict standing. The edit here flips the second question's
// answer, so a reused verdict would be a wrong one.
func TestEditRetractsEveryAffectedVerdict(t *testing.T) {
	st := store.NewMem()
	acc := logic.LinVar("acc")
	// Can left, entered with acc == 0, leave with acc >= 3?
	leftReachesThree := summary.Question{Proc: "left", Pre: logic.EQ(acc), Post: logic.LEq(logic.LinConst(3), acc)}
	ask := func(prog *cfg.Program, q summary.Question) Result {
		t.Helper()
		res := New(prog, incrOpts(st, false)).Run(q)
		if res.StoreErr != nil {
			t.Fatal(res.StoreErr)
		}
		return res
	}

	prog := parser.MustParse(incrTestProg)
	if res := ask(prog, AssertionQuestion(prog)); res.Verdict != Safe {
		t.Fatalf("main: %v", res.Verdict)
	}
	if res := ask(prog, leftReachesThree); res.Verdict != Safe || res.ReusedVerdict {
		t.Fatalf("left before the edit: verdict %v, reused %v", res.Verdict, res.ReusedVerdict)
	}
	if res := ask(prog, leftReachesThree); !res.ReusedVerdict {
		t.Fatal("left, unchanged program: the verdict on file was not reused")
	}

	edited := parser.MustParse(strings.Replace(incrTestProg, "proc deep { acc = acc + 1; }", "proc deep { acc = acc + 2; }", 1))
	if res := ask(edited, AssertionQuestion(edited)); res.Verdict != Safe || res.ReusedVerdict {
		t.Fatalf("main after the edit: verdict %v, reused %v", res.Verdict, res.ReusedVerdict)
	}
	// The store's manifest now describes the edited program, so nothing
	// looks edited any more; only the retraction keeps left's old answer
	// from being served.
	res := ask(edited, leftReachesThree)
	if res.ReusedVerdict || res.Verdict != ErrorReachable {
		t.Fatalf("left after the edit: verdict %v, reused %v; want a fresh Error Reachable", res.Verdict, res.ReusedVerdict)
	}
}
