package bolt_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	bolt "repro"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

const apiSample = `
program sample;
globals g;

proc main {
  g = 0;
  step();
  step();
  assert(g <= 2);
}

proc step { g = g + 1; }
`

func TestParseAndCheck(t *testing.T) {
	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Main() != "main" {
		t.Errorf("Main = %q", prog.Main())
	}
	procs := prog.Procedures()
	if len(procs) != 2 {
		t.Fatalf("Procedures = %v", procs)
	}
	res := prog.Check(bolt.Options{Threads: 4, Timeout: 30 * time.Second})
	if res.Verdict != bolt.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.TotalQueries < 2 {
		t.Errorf("expected sub-queries, got %d", res.TotalQueries)
	}
}

func TestParseError(t *testing.T) {
	_, err := bolt.Parse(`proc main { x = ; }`)
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckReach(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	// Can main exit with g == 2? Yes (both steps taken).
	res, err := prog.CheckReach("main", "true", "g == 2", bolt.Options{Threads: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != bolt.ErrorReachable {
		t.Fatalf("g==2: %v", res.Verdict)
	}
	// Can step exit with g == 10 from g == 0? No.
	res2, err := prog.CheckReach("step", "g == 0", "g == 10", bolt.Options{Threads: 2, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != bolt.Safe {
		t.Fatalf("g==10: %v", res2.Verdict)
	}
}

func TestCheckReachErrors(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	if _, err := prog.CheckReach("ghost", "true", "true", bolt.Options{}); err == nil {
		t.Error("unknown procedure accepted")
	}
	if _, err := prog.CheckReach("main", "g >", "true", bolt.Options{}); err == nil {
		t.Error("bad precondition accepted")
	}
	if _, err := prog.CheckReach("main", "true", "g > )", bolt.Options{}); err == nil {
		t.Error("bad postcondition accepted")
	}
}

func TestAnalysisSelection(t *testing.T) {
	buggy := bolt.MustParse(`proc main { locals x; x = 1; assert(x > 5); }`)
	for _, a := range []bolt.Analysis{bolt.MayMust, bolt.May, bolt.Must} {
		res := buggy.Check(bolt.Options{Analysis: a, Threads: 2, Timeout: 30 * time.Second})
		if res.Verdict != bolt.ErrorReachable {
			t.Errorf("%v: verdict %v", a, res.Verdict)
		}
	}
}

func TestTimeoutYieldsUnknown(t *testing.T) {
	// An iteration-starved run must be Unknown, never a wrong answer.
	prog := bolt.MustParse(apiSample)
	res := prog.Check(bolt.Options{Threads: 1, MaxVirtualTicks: 1})
	if res.Verdict == bolt.ErrorReachable {
		t.Fatalf("wrong verdict under starvation: %v", res.Verdict)
	}
	if !res.StopReason.Exhausted() {
		t.Log("note: check finished within one tick (acceptable)")
	}
}

func TestVerdictStrings(t *testing.T) {
	if bolt.Safe.String() == "" || bolt.ErrorReachable.String() == "" || bolt.Unknown.String() == "" {
		t.Fatal("empty verdict strings")
	}
	if bolt.MayMust.String() != "may-must" || bolt.May.String() != "may" || bolt.Must.String() != "must" {
		t.Fatal("analysis strings")
	}
}

func TestWitnessAttachment(t *testing.T) {
	prog := bolt.MustParse(`
proc main {
  locals x;
  havoc x;
  if (x > 7) { assert(x <= 7); }
}`)
	res := prog.Check(bolt.Options{Threads: 2, FindWitness: true, Timeout: 30 * time.Second})
	if res.Verdict != bolt.ErrorReachable {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Witness == nil {
		t.Fatal("no witness attached")
	}
	if !strings.Contains(res.Witness.Text, "error state") {
		t.Errorf("witness text: %s", res.Witness.Text)
	}
}

func TestDotFacade(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	if !strings.Contains(prog.Dot(), "digraph") {
		t.Fatal("Dot output malformed")
	}
}

func TestFacadeOnGeneratedDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	src := drivers.Source(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	prog, err := bolt.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Check(bolt.Options{Threads: 8, Timeout: 120 * time.Second})
	if res.Verdict != bolt.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.VirtualTicks == 0 || res.TotalQueries < 2 {
		t.Errorf("stats look wrong: %+v", res)
	}
}

func TestCheckContextCancelled(t *testing.T) {
	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, async := range []bool{false, true} {
		res := prog.CheckContext(ctx, bolt.Options{Threads: 2, Async: async})
		if res.StopReason != bolt.StopCancelled {
			t.Errorf("async=%v: stop reason %v, want %v", async, res.StopReason, bolt.StopCancelled)
		}
		if res.Verdict != bolt.Unknown {
			t.Errorf("async=%v: cancelled run reported %v", async, res.Verdict)
		}
		res, err := prog.CheckReachContext(ctx, "step", "g == 0", "g == 10", bolt.Options{Threads: 2, Async: async})
		if err != nil || res.StopReason != bolt.StopCancelled || res.Verdict != bolt.Unknown {
			t.Errorf("async=%v: CheckReachContext: %v/%v (err %v), want cancelled/Unknown", async, res.StopReason, res.Verdict, err)
		}
	}
	if got := bolt.StopCancelled.String(); got != "cancelled" {
		t.Errorf("StopCancelled.String() = %q", got)
	}
}

func TestCheckDistributedWithFaults(t *testing.T) {
	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{
		Nodes:  3,
		Faults: "kill=1@1,drop=0.1,seed=7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != bolt.Safe {
		t.Fatalf("verdict %v, want Safe (stop %v)", res.Verdict, res.StopReason)
	}
	if res.StopReason != bolt.StopRootAnswered {
		t.Fatalf("stop reason %v", res.StopReason)
	}
	// A malformed fault plan is an error, not a panic.
	if _, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{Nodes: 2, Faults: "drop=2.0"}); err == nil {
		t.Fatal("invalid fault spec must be rejected")
	}
}

// TestObservabilityFacade: Options.TraceTo / CollectMetrics / PprofLabels
// flow through the public API on both single-machine engines and the
// simulated cluster; the trace validates and the metrics land on the
// result.
func TestObservabilityFacade(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	for _, async := range []bool{false, true} {
		var buf bytes.Buffer
		res := prog.Check(bolt.Options{
			Threads:        4,
			Async:          async,
			Timeout:        30 * time.Second,
			TraceTo:        &buf,
			CollectMetrics: true,
			PprofLabels:    true,
		})
		if res.Verdict != bolt.Safe {
			t.Fatalf("async=%v: verdict = %v", async, res.Verdict)
		}
		if res.TraceErr != nil {
			t.Fatalf("async=%v: trace error %v", async, res.TraceErr)
		}
		spans := chromeSpans(t, buf.Bytes())
		if spans < 1 || spans != res.TraceSpans || int64(spans) != res.Metrics["punch_invocations"] {
			t.Errorf("async=%v: spans = %d, TraceSpans = %d, punch_invocations = %d", async, spans, res.TraceSpans, res.Metrics["punch_invocations"])
		}
		if res.Metrics == nil || res.Metrics["punch_invocations"] < 1 {
			t.Errorf("async=%v: metrics missing punch invocations: %v", async, res.Metrics)
		}
		if res.Metrics["makespan_ticks"] != res.VirtualTicks {
			t.Errorf("async=%v: makespan_ticks = %d, want %d", async, res.Metrics["makespan_ticks"], res.VirtualTicks)
		}
		if len(res.WorkerMetrics) != 4 {
			t.Errorf("async=%v: worker metrics = %d, want 4", async, len(res.WorkerMetrics))
		}
	}
}

// chromeSpans parses a Chrome trace-event document (a JSON array) and
// counts its complete spans; obs's own tests check their nesting.
func chromeSpans(t *testing.T, doc []byte) int {
	t.Helper()
	var evs []struct {
		Ph string `json:"ph"`
	}
	if err := json.Unmarshal(doc, &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	n := 0
	for _, ev := range evs {
		if ev.Ph == "X" {
			n++
		}
	}
	return n
}

// TestObservabilityOffByDefault: a plain run attaches nothing.
func TestObservabilityOffByDefault(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	res := prog.Check(bolt.Options{Threads: 2, Timeout: 30 * time.Second})
	if res.Metrics != nil || res.WorkerMetrics != nil || res.TraceSpans != 0 {
		t.Errorf("observability fields populated without opting in: %+v", res.Metrics)
	}
}

// TestDistObservabilityFacade mirrors TestObservabilityFacade for the
// simulated cluster.
func TestDistObservabilityFacade(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	var buf bytes.Buffer
	res, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{
		Nodes:          2,
		ThreadsPerNode: 2,
		Timeout:        30 * time.Second,
		TraceTo:        &buf,
		CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != bolt.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	if spans := chromeSpans(t, buf.Bytes()); spans != res.TraceSpans || spans < 1 {
		t.Errorf("spans = %d, TraceSpans = %d", spans, res.TraceSpans)
	}
	if res.Metrics == nil || res.Metrics["queries_spawned"] < 1 {
		t.Errorf("metrics missing: %v", res.Metrics)
	}
	if res.Metrics["workers"] != 4 {
		t.Errorf("workers = %d, want 4 (2 nodes x 2 threads)", res.Metrics["workers"])
	}
}

// TestShelfEngagementInMetrics: a Table-1 check reports its region-graph
// shelves in the metrics, on Check and on CheckDistributed alike: queries took
// graphs that earlier queries of the same procedure and postcondition left
// behind, and no graph was taken or dropped that was not shelved.
func TestShelfEngagementInMetrics(t *testing.T) {
	c := harness.Table1Checks()[3] // parport/PowerDownFail
	prog := bolt.MustParse(drivers.Source(c.Config))
	res := prog.Check(bolt.Options{Threads: 1, CollectMetrics: true})
	dres, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{Nodes: 2, ThreadsPerNode: 2, CollectMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]map[string]int64{"Check": res.Metrics, "CheckDistributed": dres.Metrics} {
		shelved, taken, evicted := m["shelf_shelved"], m["shelf_taken"], m["shelf_evicted"]
		if taken < 1 || shelved < taken+evicted {
			t.Errorf("%s of %s: shelf_shelved %d, shelf_taken %d, shelf_evicted %d", name, c.ID(), shelved, taken, evicted)
		}
	}
}

// TestObservabilityAccountingAllPaths: the shared-memory entry point and
// CheckDistributed fill the metrics and trace fields through the same
// helper, so the same accounting identities hold on both: one
// WorkerMetrics row per worker slot, their punches summing to the
// punch_invocations counter and to the stream's punch-end events, and
// TraceEvents equal to the lines actually written.
func TestObservabilityAccountingAllPaths(t *testing.T) {
	prog := bolt.MustParse(apiSample)
	type outcome struct {
		verdict bolt.Verdict
		metrics map[string]int64
		workers []obs.WorkerSnapshot
		events  int64
		err     error
	}
	paths := map[string]func(*bytes.Buffer) outcome{
		"barrier": func(buf *bytes.Buffer) outcome {
			r := prog.Check(bolt.Options{Threads: 4, Timeout: 30 * time.Second, TraceJSONLTo: buf, CollectMetrics: true})
			return outcome{r.Verdict, r.Metrics, r.WorkerMetrics, r.TraceEvents, r.TraceErr}
		},
		"dist": func(buf *bytes.Buffer) outcome {
			r, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{
				Nodes: 2, ThreadsPerNode: 2, Timeout: 30 * time.Second, TraceJSONLTo: buf, CollectMetrics: true})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{r.Verdict, r.Metrics, r.WorkerMetrics, r.TraceEvents, r.TraceErr}
		},
	}
	for name, run := range paths {
		var buf bytes.Buffer
		o := run(&buf)
		if o.verdict != bolt.Safe || o.err != nil {
			t.Fatalf("%s: verdict %v, trace error %v", name, o.verdict, o.err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if o.events < 1 || int64(len(lines)) != o.events {
			t.Errorf("%s: TraceEvents = %d, stream holds %d lines", name, o.events, len(lines))
		}
		var punchEnds, punches int64
		for _, l := range lines {
			ev, err := obs.UnmarshalEventJSON(l)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev.Type == obs.EvPunchEnd {
				punchEnds++
			}
		}
		for _, w := range o.workers {
			punches += w.Punches
		}
		if len(o.workers) != 4 || o.metrics["workers"] != 4 {
			t.Errorf("%s: %d worker rows, workers = %d, want 4", name, len(o.workers), o.metrics["workers"])
		}
		if inv := o.metrics["punch_invocations"]; inv < 1 || punches != inv || punchEnds != inv {
			t.Errorf("%s: punch_invocations = %d, worker punches = %d, punch-end events = %d", name, inv, punches, punchEnds)
		}
	}
}

// TestIncrementalFacade drives the edit-recheck workflow end to end
// through the public API over a disk store: cold populate, verdict reuse
// on the unchanged program, and cone invalidation after an edit.
func TestIncrementalFacade(t *testing.T) {
	dir := t.TempDir()
	opts := bolt.Options{Threads: 4, Timeout: 30 * time.Second, StorePath: dir, Incremental: true}

	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	cold := prog.Check(opts)
	if cold.Verdict != bolt.Safe || cold.StoreErr != nil {
		t.Fatalf("cold: verdict %v, store err %v", cold.Verdict, cold.StoreErr)
	}
	if cold.ReusedVerdict || len(cold.EditedProcs) != 2 || cold.PersistedSummaries == 0 {
		t.Fatalf("cold: reused=%v edited=%v persisted=%d", cold.ReusedVerdict, cold.EditedProcs, cold.PersistedSummaries)
	}

	again := prog.Check(opts)
	if !again.ReusedVerdict || again.Verdict != bolt.Safe || again.StopReason != bolt.StopVerdictReused {
		t.Fatalf("unchanged: reused=%v verdict=%v stop=%v (err %v)", again.ReusedVerdict, again.Verdict, again.StopReason, again.StoreErr)
	}

	edited := strings.Replace(apiSample, "proc step { g = g + 1; }", "proc step { assume(1 > 0); g = g + 1; }", 1)
	prog2, err := bolt.Parse(edited)
	if err != nil {
		t.Fatal(err)
	}
	// The edit changes nothing step does: re-proving step's interface
	// stops it there, and the verdict on file stands.
	noop := prog2.Check(opts)
	if !noop.ReusedVerdict || noop.Verdict != bolt.Safe || noop.StoreErr != nil || !strings.HasPrefix(noop.Cutoff, "held, ") {
		t.Fatalf("no-op edit: reused=%v verdict=%v cutoff=%q (err %v)", noop.ReusedVerdict, noop.Verdict, noop.Cutoff, noop.StoreErr)
	}

	// This one changes what step does from a negative g, which main never
	// passes it: the verdict holds, step's interface does not.
	edited = strings.Replace(edited, "proc step { assume(1 > 0);", "proc step { if (g < 0) { g = 7; }", 1)
	prog3, err := bolt.Parse(edited)
	if err != nil {
		t.Fatal(err)
	}
	re := prog3.Check(opts)
	if re.ReusedVerdict {
		t.Fatal("edit to step reaches main, must not reuse the verdict")
	}
	if !strings.HasPrefix(re.Cutoff, "fell back (") {
		t.Fatalf("re-check: cutoff %q, want it to fall back", re.Cutoff)
	}
	if re.Verdict != bolt.Safe || re.StoreErr != nil {
		t.Fatalf("re-check: verdict %v, store err %v", re.Verdict, re.StoreErr)
	}
	if len(re.EditedProcs) != 1 || re.EditedProcs[0] != "step" {
		t.Fatalf("re-check: edited=%v, want [step]", re.EditedProcs)
	}
	if re.InvalidatedSummaries == 0 {
		t.Fatal("re-check invalidated nothing")
	}
}

// TestUnchangedRechecksLeaveTheLogAlone: an incremental re-check of an
// unchanged program reuses the verdict and appends nothing — not a
// manifest, not a provenance record — so fifty of them leave the store
// directory byte-identical.
func TestUnchangedRechecksLeaveTheLogAlone(t *testing.T) {
	dir := t.TempDir()
	opts := bolt.Options{Threads: 4, Timeout: 30 * time.Second, StorePath: dir, Incremental: true}
	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	if cold := prog.Check(opts); cold.Verdict != bolt.Safe || cold.StoreErr != nil {
		t.Fatalf("cold: verdict %v, store err %v", cold.Verdict, cold.StoreErr)
	}
	snapshot := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshot()
	if len(before) != 1 {
		t.Fatalf("store directory holds %d files, want the one log", len(before))
	}
	for i := 0; i < 50; i++ {
		res := prog.Check(opts)
		if !res.ReusedVerdict || res.Verdict != bolt.Safe || res.StoreErr != nil {
			t.Fatalf("re-check %d: reused=%v verdict=%v err=%v", i, res.ReusedVerdict, res.Verdict, res.StoreErr)
		}
	}
	if after := snapshot(); !reflect.DeepEqual(before, after) {
		for name := range after {
			t.Errorf("%s: %d -> %d bytes", name, len(before[name]), len(after[name]))
		}
		t.Fatal("50 unchanged re-checks changed the store directory")
	}
}

// TestClauseLearningCoreEngages is why internal/smt keeps its CDCL core.
// Two inputs reach it. Ten two-way choices make 2^10 cubes, past the
// solver's DNF cap, and the formula goes to the clause-learning search;
// with the naive DPLL loop in its place this input ran for minutes under
// every analysis, and here must proves it Safe at once. And not-may
// summaries project locals out universally (regions.Graph.ProvedPre):
// the proof of local_split below splits p's entry region on its
// uninitialised local, and then asks the solver about formulas whose DNF
// is past the cap, under may and may-must alike.
func TestClauseLearningCoreEngages(t *testing.T) {
	const n = 10
	var globals, havocs, choices, sum []string
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("v%d", i)
		globals = append(globals, v)
		havocs = append(havocs, "havoc "+v+";")
		choices = append(choices, fmt.Sprintf("(%s == 0 || %s == 2)", v, v))
		sum = append(sum, v)
	}
	choiceSrc := fmt.Sprintf("globals %s;\nproc main {\n  %s\n  assume(%s);\n  assert(%s <= %d);\n}\n",
		strings.Join(globals, ", "), strings.Join(havocs, " "), strings.Join(choices, " && "), strings.Join(sum, " + "), 2*n)
	const localSplitSrc = `globals g, r;
proc main { g = 0; r = 0; p(); assert(r == 0); }
proc p { locals x; if (x <= 0) { if (g != 0) { r = 1; } } }`
	for _, c := range []struct {
		name     string
		src      string
		analysis bolt.Analysis
	}{
		{"ten choices, must", choiceSrc, bolt.Must},
		{"local_split, may", localSplitSrc, bolt.May},
		{"local_split, may-must", localSplitSrc, bolt.MayMust},
	} {
		prog, err := bolt.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res := prog.Check(bolt.Options{Analysis: c.analysis, Threads: 1, Timeout: 20 * time.Second})
		if res.Verdict != bolt.Safe {
			t.Fatalf("%s: verdict %v (stop %v), want Safe", c.name, res.Verdict, res.StopReason)
		}
		if res.Solver.DPLLConflicts == 0 {
			t.Fatalf("%s: no CDCL conflict: the formula never reached the clause-learning core", c.name)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Fatalf("%s: took %v, want well under 5s", c.name, wall)
		}
	}
}

// TestWireV2StoreIsRefused: a store written before provenance records
// lost their read set — its header carries the wire-v2 fingerprint and
// it holds a provenance record with a read set — is refused with a
// *store.MismatchError, and opening it with reset gives an empty store.
func TestWireV2StoreIsRefused(t *testing.T) {
	prog, err := bolt.Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(version int) store.Fingerprint {
		return store.NewFingerprint("bolt/incr-store", strconv.Itoa(version), bolt.MayMust.String())
	}
	// The recipe is the incremental store's: an empty store made with it
	// under this build's version opens.
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, fp(wire.Version), false)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	opts := bolt.Options{Threads: 1, StorePath: dir, Incremental: true}
	if r := prog.Check(opts); r.StoreErr != nil || r.Verdict != bolt.Safe {
		t.Fatalf("store under the current fingerprint: verdict %v, store err %v", r.Verdict, r.StoreErr)
	}

	dir = t.TempDir()
	if d, err = store.OpenDisk(dir, fp(2), false); err != nil {
		t.Fatal(err)
	}
	s := summary.Summary{Kind: summary.NotMay, Proc: "step", Pre: logic.True, Post: logic.False}
	if _, err := d.Put(s); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// A v2 provenance record: root, verdict and engine, one read (warm
	// flag, hit count, the summary), an empty root key, no adjacency.
	payload := []byte{wire.TagProv}
	for _, f := range []string{"main", "Program is Safe", "barrier"} {
		payload = append(binary.AppendUvarint(payload, uint64(len(f))), f...)
	}
	payload = binary.AppendUvarint(append(binary.AppendUvarint(payload, 1), 1), 3)
	if payload, err = wire.AppendSummary(payload, s); err != nil {
		t.Fatal(err)
	}
	payload = binary.AppendUvarint(binary.AppendUvarint(payload, 0), 0)
	rec := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(filepath.Join(dir, store.SegName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts.StorePath = dir
	r := prog.Check(opts)
	var mm *store.MismatchError
	if !errors.As(r.StoreErr, &mm) || r.Verdict != bolt.Unknown {
		t.Fatalf("wire-v2 store: verdict %v, store err %v; want Unknown and a *store.MismatchError", r.Verdict, r.StoreErr)
	}
	if d, err = store.OpenDisk(dir, fp(wire.Version), true); err != nil {
		t.Fatalf("wire-v2 store with reset: %v", err)
	}
	defer d.Close()
	if recs, err := d.LoadProv(); d.Count() != 0 || len(recs) != 0 || err != nil {
		t.Fatalf("reset store holds %d summaries and %d provenance records (%v)", d.Count(), len(recs), err)
	}
}
