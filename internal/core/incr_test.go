package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/drivers"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
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

			// Edit deep without changing what it does: the re-check
			// re-proves deep's interface, the edit stops there, and the
			// verdict on file is reused after the re-proofs.
			// (The store's manifest is now progIdle's, so mutate on top.)
			mutDeep, err := incr.MutateSource(mutIdle, "deep", 5)
			if err != nil {
				t.Fatal(err)
			}
			progDeep := parser.MustParse(mutDeep)
			noopOpts := incrOpts(st, async)
			noopOpts.Metrics = obs.NewMetrics()
			noop := New(progDeep, noopOpts).Run(AssertionQuestion(progDeep))
			if !noop.ReusedVerdict || noop.Verdict != Safe || noop.StoreErr != nil {
				t.Fatalf("no-op deep edit: reused=%v verdict=%v err=%v", noop.ReusedVerdict, noop.Verdict, noop.StoreErr)
			}
			if c := noop.Cutoff; c == nil || !c.Held || c.Proc != "deep" || c.Reproofs == 0 || c.Ticks == 0 || noop.VirtualTicks != c.Ticks {
				t.Fatalf("no-op deep edit: cutoff %+v, ticks %d; want it held after at least one re-proof", c, noop.VirtualTicks)
			}
			var prom strings.Builder
			if err := obs.WritePrometheus(&prom, noop.Metrics); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"bolt_incr_cutoff_hits_total 1\n", "bolt_incr_cutoff_fallbacks_total 0\n", fmt.Sprintf("bolt_incr_reproofs_total %d\n", noop.Cutoff.Reproofs)} {
				if !strings.Contains(prom.String(), want) {
					t.Errorf("no-op deep edit: Prometheus exposition lacks %q", want)
				}
			}

			// Edit deep so that it adds more: its interface no longer
			// holds, so the cone {deep, left, main} is stale, right and
			// idle survive, and the re-check verdict stays confluent.
			semDeep := strings.Replace(mutDeep, "} acc = acc + 1; }", "} acc = acc + 2; }", 1)
			if semDeep == mutDeep {
				t.Fatal("the mutated program no longer has the shape this test edits")
			}
			progSem := parser.MustParse(semDeep)
			re := New(progSem, incrOpts(st, async)).Run(AssertionQuestion(progSem))
			if re.ReusedVerdict {
				t.Fatal("a semantic deep edit reaches the root, must not reuse the verdict")
			}
			if c := re.Cutoff; c == nil || c.Held {
				t.Fatalf("semantic deep edit: cutoff %+v, want it to fall back", c)
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
			scratch := New(progSem, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000, Async: async}).Run(AssertionQuestion(progSem))
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
	noop := NewDistributed(prog2, dopts()).Run(AssertionQuestion(prog2))
	if !noop.ReusedVerdict || noop.Verdict != Safe || noop.StoreErr != nil {
		t.Fatalf("no-op deep edit: reused=%v verdict=%v err=%v", noop.ReusedVerdict, noop.Verdict, noop.StoreErr)
	}
	if c := noop.Cutoff; c == nil || !c.Held || c.Reproofs == 0 {
		t.Fatalf("no-op deep edit: cutoff %+v, want it held after at least one re-proof", c)
	}
	sem := strings.Replace(mut, "} acc = acc + 1; }", "} acc = acc + 2; }", 1)
	if sem == mut {
		t.Fatal("the mutated program no longer has the shape this test edits")
	}
	prog3 := parser.MustParse(sem)
	re := NewDistributed(prog3, dopts()).Run(AssertionQuestion(prog3))
	if re.ReusedVerdict || re.Verdict != Safe || re.StoreErr != nil {
		t.Fatalf("semantic deep edit: reused=%v verdict=%v err=%v", re.ReusedVerdict, re.Verdict, re.StoreErr)
	}
	if c := re.Cutoff; c == nil || c.Held {
		t.Fatalf("semantic deep edit: cutoff %+v, want it to fall back", c)
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

// TestCutoffFallsBack: a re-check whose edit reaches the root stops at
// the edited procedure only when it may. Each case edits a program so
// that the cutoff must not be tried, or must give up, and the re-check
// must then name why and answer what a from-scratch run answers.
func TestCutoffFallsBack(t *testing.T) {
	const recursive = `globals g;
proc main { g = 0; a(); assert(g <= 5); }
proc a { if (g < 2) { g = g + 1; a(); } }
`
	mutate := func(src, proc string, seed int64) string {
		t.Helper()
		out, err := incr.MutateSource(src, proc, seed)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	twoEdits := mutate(mutate(incrTestProg, "deep", 1), "right", 1)
	// A procedure whose interface takes more than one round to re-prove.
	driver := drivers.Source(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
	cases := []struct {
		name, src, edited string
		// prepare runs between the cold check and the re-check.
		prepare func(st store.Store)
		ticks   int64
		reason  string
	}{
		{name: "several procedures edited", src: incrTestProg, edited: twoEdits, reason: "several procedures edited"},
		{name: "on a cycle", src: recursive, edited: mutate(recursive, "a", 1), reason: "on a call-graph cycle"},
		{name: "no Mod sets on file", src: incrTestProg, edited: mutate(incrTestProg, "deep", 1), reason: "no Mod sets on file",
			// A store written before the Mod sets were recorded.
			prepare: func(st store.Store) {
				man, _, err := st.LoadManifest()
				if err != nil {
					t.Fatal(err)
				}
				if err := st.PutManifest(man, nil); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "re-proof out of ticks", src: driver, edited: mutate(driver, "sub_1_1", 1), ticks: 1,
			reason: "a re-proof ended " + Unknown.String()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := store.NewMem()
			prog, edited := parser.MustParse(c.src), parser.MustParse(c.edited)
			cold := New(prog, incrOpts(st, false)).Run(AssertionQuestion(prog))
			if cold.StoreErr != nil {
				t.Fatal(cold.StoreErr)
			}
			if c.prepare != nil {
				c.prepare(st)
			}
			o := incrOpts(st, false)
			o.MaxVirtualTicks = c.ticks
			re := New(edited, o).Run(AssertionQuestion(edited))
			if re.StoreErr != nil {
				t.Fatal(re.StoreErr)
			}
			if re.Cutoff == nil || re.Cutoff.Held || re.Cutoff.Reason != c.reason || re.ReusedVerdict {
				t.Fatalf("cutoff %+v, reused %v; want it to fall back: %s", re.Cutoff, re.ReusedVerdict, c.reason)
			}
			scratch := New(edited, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000}).Run(AssertionQuestion(edited))
			if c.ticks == 0 && re.Verdict != scratch.Verdict {
				t.Fatalf("re-check %v, from scratch %v", re.Verdict, scratch.Verdict)
			}
			// The fall-back recorded the Mod sets and retracted the verdict:
			// a later edit of the same procedure may stop there, and an
			// unchanged re-check answers from scratch's verdict.
			again := New(edited, incrOpts(st, false)).Run(AssertionQuestion(edited))
			if again.Verdict != scratch.Verdict {
				t.Fatalf("unchanged re-check after the fall-back: %v, from scratch %v", again.Verdict, scratch.Verdict)
			}
			if c.name == "no Mod sets on file" {
				next := parser.MustParse(mutate(c.edited, "deep", 2))
				if res := New(next, incrOpts(st, false)).Run(AssertionQuestion(next)); res.Cutoff == nil || !res.Cutoff.Held || !res.ReusedVerdict {
					t.Fatalf("the next edit, with the Mod sets on file: cutoff %+v, reused %v", res.Cutoff, res.ReusedVerdict)
				}
			}
		})
	}
}

// TestCutoffBudgetsApart: a re-check's re-proofs and its root question
// are budgeted apart. An edit that makes addtwo's re-proof end Error
// Reachable falls back to the cone; given the least tick budget, or
// round bound, that lets the root question alone start its last round,
// the fall-back still decides it, and the run's trace numbers its rounds
// over the whole run. The streaming engine's rounds are its completion
// events. One thread keeps ticks and rounds the same from run to run.
func TestCutoffBudgetsApart(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) { testCutoffBudgetsApart(t, async) })
	}
}

func testCutoffBudgetsApart(t *testing.T, async bool) {
	raw, err := os.ReadFile("../../testdata/corpus/safe_shared_helper.bolt")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	edited := parser.MustParse(strings.Replace(src, "proc addtwo { acc = acc + 2; }", "proc addtwo { acc = acc + 3; }", 1))
	recheck := func(ticks int64, rounds int) Result {
		t.Helper()
		st := store.NewMem()
		prog := parser.MustParse(src)
		o := incrOpts(st, async)
		o.MaxThreads = 1
		if cold := New(prog, o).Run(AssertionQuestion(prog)); cold.Verdict != Safe {
			t.Fatalf("cold: %v", cold.Verdict)
		}
		o.MaxVirtualTicks = ticks
		if rounds > 0 {
			o.MaxIterations = rounds
		}
		return New(edited, o).Run(AssertionQuestion(edited))
	}
	free := recheck(0, 0)
	if free.Cutoff == nil || free.Cutoff.Held || free.Cutoff.Ticks == 0 || free.Verdict != ErrorReachable {
		t.Fatalf("unbudgeted re-check: cutoff %v, verdict %v; want a re-proof that falls back, then Error Reachable", free.Cutoff, free.Verdict)
	}
	if free.Iterations != len(free.Trace) {
		t.Fatalf("%d iterations, %d trace samples", free.Iterations, len(free.Trace))
	}
	// The root question's rounds start where the re-proofs left the clock.
	rounds := 0
	for i, s := range free.Trace {
		if s.Iter != i {
			t.Fatalf("trace sample %d is numbered %d", i, s.Iter)
		}
		if s.VTime >= free.Cutoff.Ticks {
			rounds++
		}
	}
	if rounds == 0 || rounds == free.Iterations {
		t.Fatalf("%d of %d rounds are the root question's", rounds, free.Iterations)
	}
	ticks := free.Trace[len(free.Trace)-1].VTime - free.Cutoff.Ticks + 1
	for _, b := range []struct {
		ticks  int64
		rounds int
	}{{ticks: ticks}, {rounds: rounds}} {
		if res := recheck(b.ticks, b.rounds); res.Verdict != free.Verdict || res.VirtualTicks != free.VirtualTicks {
			t.Fatalf("%d ticks, %d rounds, the root question's own: verdict %v after %d ticks, want %v after %d",
				b.ticks, b.rounds, res.Verdict, res.VirtualTicks, free.Verdict, free.VirtualTicks)
		}
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
	// fresh summaries, provenance.
	cuts, kinds := appendedRecords(t, data, int(persisted.Size()))
	if !regexp.MustCompile(`^T+PMS+P$`).MatchString(kinds) {
		t.Fatalf("the re-check appended records %q, want T.. P M S.. P", kinds)
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

// appendedRecords walks the log's framing (uvarint length, payload,
// 4-byte checksum) from offset from to its end and returns every record
// boundary, from included, and each record's kind byte.
func appendedRecords(t *testing.T, data []byte, from int) ([]int, string) {
	t.Helper()
	cuts := []int{from}
	kinds := ""
	for pos := from; pos < len(data); {
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatalf("bad record length at offset %d", pos)
		}
		kinds += string(data[pos+n])
		pos += n + int(plen) + 4
		cuts = append(cuts, pos)
	}
	if cuts[len(cuts)-1] != len(data) {
		t.Fatalf("records end at %d of %d bytes", cuts[len(cuts)-1], len(data))
	}
	return cuts, kinds
}

// TestHeldCutoffCrash cuts a held cutoff's writes at every record
// boundary, with two root questions on file. deep is edited without
// changing what it does, and the re-check under main's assertion holds
// its cutoff. A second edit then makes left reach acc >= 3 while deep
// keeps the summary main's assertion rests on. Whatever prefix of the
// first re-check survives, re-checking the second edit under main and
// then under left must answer what from scratch answers: a crash that
// kept only part of deep's re-proved interface must not leave left's old
// Safe verdict standing beside a cutoff that re-proved the rest.
func TestHeldCutoffCrash(t *testing.T) {
	noop := strings.Replace(incrTestProg, "proc deep { acc = acc + 1; }", "proc deep { acc = acc + 1; assume(1 > 0); }", 1)
	flip := strings.Replace(noop, "proc deep { acc = acc + 1; assume(1 > 0); }", "proc deep { if (acc == 1) { acc = acc + 2; } else { acc = acc + 1; } }", 1)
	acc := logic.LinVar("acc")
	questions := []func(*cfg.Program) summary.Question{
		AssertionQuestion,
		func(*cfg.Program) summary.Question {
			return summary.Question{Proc: "left", Pre: logic.EQ(acc), Post: logic.LEq(logic.LinConst(3), acc)}
		},
	}
	fp := store.NewFingerprint("held-cutoff-crash")
	recheck := func(dir string, src string, q int) Result {
		t.Helper()
		d, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(src)
		res := New(prog, incrOpts(d, false)).Run(questions[q](prog))
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if res.StoreErr != nil {
			t.Fatalf("store error: %v", res.StoreErr)
		}
		return res
	}
	scratch := func(src string, q int) Verdict {
		prog := parser.MustParse(src)
		return New(prog, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000}).Run(questions[q](prog)).Verdict
	}
	if v := scratch(flip, 1); v != ErrorReachable {
		t.Fatalf("left after the second edit, from scratch: %v, want the edit to flip it", v)
	}

	dir := t.TempDir()
	log := filepath.Join(dir, store.SegName)
	for q := range questions {
		if cold := recheck(dir, incrTestProg, q); cold.Verdict != Safe {
			t.Fatalf("cold, question %d: %v", q, cold.Verdict)
		}
	}
	persisted, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if re := recheck(dir, noop, 0); re.Cutoff == nil || !re.Cutoff.Held || re.Cutoff.Reproofs == 0 || !re.ReusedVerdict {
		t.Fatalf("no-op edit: cutoff %v, reused %v; want it held after a re-proof", re.Cutoff, re.ReusedVerdict)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	// Tombstones, the retraction of left's verdict, the manifest, then
	// deep's re-proved and the callers' kept summaries.
	cuts, kinds := appendedRecords(t, data, int(persisted.Size()))
	if !regexp.MustCompile(`^T+PMS+$`).MatchString(kinds) {
		t.Fatalf("the held re-check appended records %q, want T.. P M S..", kinds)
	}
	want := []Verdict{scratch(flip, 0), scratch(flip, 1)}
	for _, cut := range cuts {
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, store.SegName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for q := range questions {
			if re := recheck(crashed, flip, q); re.Verdict != want[q] {
				t.Fatalf("log cut after %d of %d appended records: question %d says %v (reused %v, cutoff %v), from scratch %v",
					sort.SearchInts(cuts, cut), len(cuts)-1, q, re.Verdict, re.ReusedVerdict, re.Cutoff, want[q])
			}
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

// shadowStore records every provenance record put through it, as a log
// that never folds would hold it.
type shadowStore struct {
	*store.Disk
	log *[]wire.ProvRecord
}

func (s shadowStore) PutProv(rec wire.ProvRecord) error {
	b, err := wire.AppendProv(nil, rec)
	if err != nil {
		return err
	}
	head, _, err := wire.DecodeProv(b)
	if err != nil {
		return err
	}
	*s.log = append(*s.log, head)
	return s.Disk.PutProv(rec)
}

// TestProvFoldKeepsEveryPlan runs a 20-edit session over one disk store
// under two root questions; one edit removes a call, so the adjacency of
// superseded records matters. Before every check it plans the re-check
// twice, from the store's provenance (folded whenever an open rewrites
// the log) and from every record ever put: the edited set, the stale
// cone, the verdicts to retract and the reuse decision must agree, and
// after the open no root question has more than one record on file.
func TestProvFoldKeepsEveryPlan(t *testing.T) {
	// deep's second statement is toggled between adding 0 and adding 1:
	// with 1, left reaches acc >= 3 from acc == 0.
	src := strings.Replace(incrTestProg, "proc deep { acc = acc + 1; }", "proc deep { acc = acc + 1; acc = 0 + acc; }", 1)
	acc := logic.LinVar("acc")
	questions := []func(*cfg.Program) summary.Question{
		AssertionQuestion,
		func(*cfg.Program) summary.Question {
			return summary.Question{Proc: "left", Pre: logic.EQ(acc), Post: logic.LEq(logic.LinConst(3), acc)}
		},
	}
	dir := t.TempDir()
	fp := store.NewFingerprint("fold-session")
	var all []wire.ProvRecord
	reused := 0
	ask := func(step string, prog *cfg.Program, q summary.Question) {
		t.Helper()
		d, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		folded, err := d.LoadProv()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, rec := range folded {
			if seen[rec.RootKey] {
				t.Fatalf("%s: two provenance records of one root question after the open", step)
			}
			seen[rec.RootKey] = true
		}
		oldMan, oldMod, err := d.LoadManifest()
		if err != nil {
			t.Fatal(err)
		}
		newMan := incr.Snapshot(prog)
		got, want := planIncr(prog, newMan, oldMan, oldMod, folded, q), planIncr(prog, newMan, oldMan, oldMod, all, q)
		retracted := func(recs []wire.ProvRecord, idx []int) []string {
			var keys []string
			for _, i := range idx {
				keys = append(keys, recs[i].RootKey)
			}
			sort.Strings(keys)
			return keys
		}
		if fmt.Sprint(got.edited, got.full, got.stale, got.reuse, got.verdict, retracted(folded, got.retract), got.cut, got.why, got.standing) !=
			fmt.Sprint(want.edited, want.full, want.stale, want.reuse, want.verdict, retracted(all, want.retract), want.cut, want.why, want.standing) {
			t.Fatalf("%s: folded provenance plans %+v, every record %+v", step, got, want)
		}
		res := New(prog, incrOpts(shadowStore{d, &all}, false)).Run(q)
		if res.StoreErr != nil {
			t.Fatalf("%s: %v", step, res.StoreErr)
		}
		// A run may also reuse a verdict the plan could not: after its
		// re-proof of the edited procedure held.
		if res.ReusedVerdict != want.reuse && !(res.ReusedVerdict && want.cut != "" && res.Cutoff.Held) {
			t.Fatalf("%s: planned reuse %v, the run reused %v (cutoff %v)", step, want.reuse, res.ReusedVerdict, res.Cutoff)
		}
		if res.ReusedVerdict {
			reused++
		}
	}

	procs := []string{"main", "left", "right", "deep", "idle"}
	for k := 0; k <= 20; k++ {
		if k > 0 {
			var err error
			if src, err = incr.MutateSource(src, procs[k%len(procs)], int64(k)); err != nil {
				t.Fatal(err)
			}
			if k == 7 {
				// left stops calling deep: from here on only the
				// adjacency on file links them, and an edit to deep must
				// still reach left through it.
				src = strings.Replace(src, "deep();", "skip;", 1)
			}
			if k%3 == 0 {
				if strings.Contains(src, "acc = 0 + acc;") {
					src = strings.Replace(src, "acc = 0 + acc;", "acc = 1 + acc;", 1)
				} else {
					src = strings.Replace(src, "acc = 1 + acc;", "acc = 0 + acc;", 1)
				}
			}
		}
		prog := parser.MustParse(src)
		for i, q := range questions {
			ask(fmt.Sprintf("edit %d, question %d", k, i), prog, q(prog))
			ask(fmt.Sprintf("edit %d, question %d again", k, i), prog, q(prog))
		}
	}
	t.Logf("reused %d, records %d", reused, len(all))
	if reused == 0 || len(all) < 4*len(questions) {
		t.Fatalf("the session reused %d verdicts over %d provenance records: too few to show the fold", reused, len(all))
	}
}

// TestDamagedSummaryRunsCold: a summary record whose checksum holds over
// a formula that does not decode opens (the open reads procedure names
// only); the warm start's Load reports it as a *store.CorruptError, and
// the run goes on cold to the right verdict.
func TestDamagedSummaryRunsCold(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/corpus/safe_shared_helper.bolt")
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(string(raw))
	dir, fp := t.TempDir(), store.NewFingerprint("damaged-summary")
	run := func() Result {
		t.Helper()
		d, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer d.Close()
		return New(prog, Options{Punch: maymust.New(), MaxThreads: 1, Store: d}).Run(AssertionQuestion(prog))
	}
	if cold := run(); cold.Verdict != Safe || cold.PersistedSummaries == 0 || cold.StoreErr != nil {
		t.Fatalf("cold: verdict %v, persisted %d, store error %v", cold.Verdict, cold.PersistedSummaries, cold.StoreErr)
	}

	// Give the first summary record a precondition tag no formula has,
	// and a checksum that matches.
	log := filepath.Join(dir, store.SegName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	pos := 8 + 1 + len(store.Fingerprint{}) // magic, version, fingerprint
	for {
		plen, n := binary.Uvarint(data[pos:])
		payload := data[pos+n : pos+n+int(plen)]
		if payload[0] == wire.TagSummary {
			nameLen, w := binary.Uvarint(payload[2:])
			payload[2+w+int(nameLen)] = 0x7f
			binary.LittleEndian.PutUint32(data[pos+n+int(plen):], crc32.ChecksumIEEE(payload))
			break
		}
		pos += n + int(plen) + 4
	}
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res := run()
	var ce *store.CorruptError
	if !errors.As(res.StoreErr, &ce) {
		t.Fatalf("store error %v, want a *store.CorruptError", res.StoreErr)
	}
	if res.Verdict != Safe || res.WarmSummaries != 0 || res.TotalQueries == 0 {
		t.Fatalf("verdict %v, warm summaries %d, queries %d: want a cold run to Safe", res.Verdict, res.WarmSummaries, res.TotalQueries)
	}
}
