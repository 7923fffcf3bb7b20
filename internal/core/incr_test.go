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
	"repro/internal/incr"
	"repro/internal/logic"
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
	head, _, err := wire.DecodeProv(b, false)
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
		folded, err := d.LoadProv(false)
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
		oldMan, err := d.LoadManifest()
		if err != nil {
			t.Fatal(err)
		}
		newMan := incr.Snapshot(prog)
		got, want := planIncr(prog, newMan, oldMan, folded, q), planIncr(prog, newMan, oldMan, all, q)
		retracted := func(recs []wire.ProvRecord, idx []int) []string {
			var keys []string
			for _, i := range idx {
				keys = append(keys, recs[i].RootKey)
			}
			sort.Strings(keys)
			return keys
		}
		if fmt.Sprint(got.edited, got.full, got.stale, got.reuse, got.verdict, retracted(folded, got.retract)) !=
			fmt.Sprint(want.edited, want.full, want.stale, want.reuse, want.verdict, retracted(all, want.retract)) {
			t.Fatalf("%s: folded provenance plans %+v, every record %+v", step, got, want)
		}
		res := New(prog, incrOpts(shadowStore{d, &all}, false)).Run(q)
		if res.StoreErr != nil {
			t.Fatalf("%s: %v", step, res.StoreErr)
		}
		if res.ReusedVerdict != want.reuse {
			t.Fatalf("%s: planned reuse %v, the run reused %v", step, want.reuse, res.ReusedVerdict)
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
