package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drivers"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/maymust"
	"repro/internal/query"
	"repro/internal/summary"
)

func TestStopReasonStrings(t *testing.T) {
	reasons := []StopReason{
		StopNone, StopRootAnswered, StopWallTimeout, StopTickBudget,
		StopEventBudget, StopDeadlocked, StopCancelled, StopNodeFailure,
	}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "StopReason(") {
			t.Errorf("reason %d has no name: %q", int(r), s)
		}
		if seen[s] {
			t.Errorf("duplicate reason string %q", s)
		}
		seen[s] = true
	}
	for _, r := range []StopReason{StopWallTimeout, StopTickBudget, StopEventBudget} {
		if !r.Exhausted() {
			t.Errorf("%v must count as budget exhaustion", r)
		}
	}
	for _, r := range []StopReason{StopNone, StopRootAnswered, StopDeadlocked, StopCancelled, StopNodeFailure} {
		if r.Exhausted() {
			t.Errorf("%v must not count as budget exhaustion", r)
		}
	}
}

func TestParseFaults(t *testing.T) {
	if f, err := ParseFaults(""); err != nil || f != nil {
		t.Fatalf("empty spec: %v %v", f, err)
	}
	f, err := ParseFaults("kill=1@3,drop=0.2,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if f.KillNode != 1 || f.KillRound != 3 || f.GossipDrop != 0.2 || f.Seed != 42 {
		t.Fatalf("parsed %+v", f)
	}
	f, err = ParseFaults("drop=0.5")
	if err != nil || f.KillNode != NoFaultNode {
		t.Fatalf("drop-only spec: %+v %v", f, err)
	}
	for _, bad := range []string{"kill=1", "kill=x@2", "kill=1@y", "drop=1.5", "drop=-0.1", "seed=zz", "nope=1", "kill"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q must not parse", bad)
		}
	}
}

// highHashProc returns a procedure name whose 32-bit FNV-1a hash exceeds
// MaxInt32 and is not a multiple of every small node count — the input
// class for which int(h.Sum32()) % nodes is negative on 32-bit platforms.
func highHashProc(t *testing.T) string {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		name := fmt.Sprintf("proc%d", i)
		h := fnv.New32a()
		_, _ = h.Write([]byte(name))
		sum := h.Sum32()
		if sum > math.MaxInt32 && int(int32(sum))%3 < 0 && int(int32(sum))%7 < 0 {
			return name
		}
	}
	t.Fatal("no high-hash proc name found")
	return ""
}

// TestNodeOfUint32Modulo is the regression test for the distributed
// router: hashing must take the modulo in uint32 space, because
// int(h.Sum32()) is negative on 32-bit platforms for half of all hashes
// and a signed modulo then indexes nodes[] out of range.
func TestNodeOfUint32Modulo(t *testing.T) {
	name := highHashProc(t)
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	sum := h.Sum32()
	if int(int32(sum))%3 >= 0 {
		t.Fatalf("%q does not demonstrate the 32-bit signed-modulo bug", name)
	}
	for _, nodes := range []int{2, 3, 7} {
		got := nodeOf(name, nodes)
		if got < 0 || got >= nodes {
			t.Fatalf("nodeOf(%q) with %d nodes = %d, out of range", name, nodes, got)
		}
		if want := int(sum % uint32(nodes)); got != want {
			t.Fatalf("nodeOf(%q) = %d, want uint32 modulo %d", name, got, want)
		}
	}
}

// TestDistributedHighHashProcRuns routes a query tree through a callee
// whose hash exceeds MaxInt32, end to end.
func TestDistributedHighHashProcRuns(t *testing.T) {
	name := highHashProc(t)
	src := fmt.Sprintf(`globals g;
proc main { g = 0; %s(); assert(g <= 1); }
proc %s { g = g + 1; }`, name, name)
	prog := parser.MustParse(src)
	res := NewDistributed(prog, DistOptions{
		Punch:          maymust.New(),
		Nodes:          3,
		ThreadsPerNode: 2,
		MaxRounds:      4000,
	}).Run(AssertionQuestion(prog))
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v (%+v)", res.Verdict, res)
	}
	if res.StopReason != StopRootAnswered {
		t.Fatalf("stop reason = %v, want root-answered", res.StopReason)
	}
}

// TestCancelledContextAllEngines: a pre-cancelled context must stop all
// three engines with StopReason StopCancelled and an Unknown verdict —
// and cancellation must NOT masquerade as a timeout or deadlock.
func TestCancelledContextAllEngines(t *testing.T) {
	prog := parser.MustParse(relationalToySource())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q0 := AssertionQuestion(prog)

	for _, async := range []bool{false, true} {
		res := New(prog, Options{
			Punch:         maymust.New(),
			MaxThreads:    4,
			MaxIterations: 1 << 19,
			Async:         async,
		}).RunContext(ctx, q0)
		if res.StopReason != StopCancelled {
			t.Errorf("async=%v: stop reason %v, want cancelled", async, res.StopReason)
		}
		if res.Verdict != Unknown {
			t.Errorf("async=%v: cancelled run reported %v", async, res.Verdict)
		}
	}
	dres := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 2}).RunContext(ctx, q0)
	if dres.StopReason != StopCancelled || dres.Verdict != Unknown {
		t.Errorf("distributed: %v/%v, want cancelled/Unknown", dres.StopReason, dres.Verdict)
	}
}

// TestCancelMidRunJoinsWorkers is the acceptance check: cancelling any
// engine mid-run on a driver-sized workload returns StopReason
// StopCancelled well within a deadline, with every worker goroutine
// joined (no leaks). Run under -race by the Makefile's race target.
func TestCancelMidRunJoinsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	prog := drivers.Generate(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
	q0 := AssertionQuestion(prog)
	baseline := runtime.NumGoroutine()

	type runner struct {
		name string
		run  func(ctx context.Context) StopReason
	}
	runners := []runner{
		{"barrier", func(ctx context.Context) StopReason {
			return New(prog, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 1 << 19}).RunContext(ctx, q0).StopReason
		}},
		{"async", func(ctx context.Context) StopReason {
			return New(prog, Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 1 << 19, Async: true}).RunContext(ctx, q0).StopReason
		}},
		{"distributed", func(ctx context.Context) StopReason {
			return NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 3, ThreadsPerNode: 4}).RunContext(ctx, q0).StopReason
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			done := make(chan StopReason, 1)
			go func() { done <- r.run(ctx) }()
			select {
			case reason := <-done:
				// A fast finish before the cancel lands is legal.
				if reason != StopCancelled && reason != StopRootAnswered {
					t.Errorf("stop reason %v, want cancelled (or root-answered if it won the race)", reason)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("engine did not observe cancellation within the deadline")
			}
		})
	}
	waitForGoroutines(t, baseline)
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (plus slack for the runtime's own helpers), failing on leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scriptPunch is a deterministic scripted PUNCH: the root spawns two
// children; child c1 completes immediately, child c2 needs two slices, so
// with two threads the root's completion lands in the same MAP batch as
// c2's — the exact shape in which the barrier engine used to lose Done
// counts.
type scriptPunch struct {
	mu    sync.Mutex
	calls map[query.ID]int
	kids  []query.ID
}

func newScriptPunch() *scriptPunch { return &scriptPunch{calls: map[query.ID]int{}} }

func (p *scriptPunch) Name() string { return "script" }

func (p *scriptPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[qr.ID]++
	done := func() punch.Result {
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 1}
	}
	switch {
	case qr.Parent == query.NoParent && p.calls[qr.ID] == 1:
		c1 := ctx.Alloc.New(qr.ID, summary.Question{Proc: "a"})
		c2 := ctx.Alloc.New(qr.ID, summary.Question{Proc: "b"})
		p.kids = []query.ID{c1.ID, c2.ID}
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: []*query.Query{c1, c2}, Cost: 1}
	case qr.Parent == query.NoParent:
		return done()
	case qr.ID == p.kids[0]:
		return done()
	case p.calls[qr.ID] == 1:
		qr.State = query.Ready // budget slice exhausted; run me again
		return punch.Result{Self: qr, Cost: 1}
	default:
		return done()
	}
}

// TestBarrierDoneCountMidBatch: with the scripted PUNCH and two threads,
// the final MAP batch contains both the root's completion and c2's. The
// regression: the root-answered break used to count only the root, losing
// every sibling Done result of that batch.
func TestBarrierDoneCountMidBatch(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	res := New(prog, Options{
		Punch:         newScriptPunch(),
		MaxThreads:    2,
		MaxIterations: 100,
	}).Run(summary.Question{Proc: "main"})
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.StopReason != StopRootAnswered {
		t.Fatalf("stop reason = %v", res.StopReason)
	}
	// Batch 1: root (spawns c1, c2). Batch 2: c1 Done, c2 Ready.
	// Batch 3: root Done AND c2 Done — all three must be counted.
	if res.DoneQueries != 3 {
		t.Fatalf("DoneQueries = %d, want 3 (root + both children)", res.DoneQueries)
	}
	// The live peak (root + both children) is reached before the final
	// batch's REDUCE and must survive the root-answered break.
	if res.PeakLive != 3 {
		t.Fatalf("PeakLive = %d, want 3", res.PeakLive)
	}
}

// countingPunch wraps an analysis and counts every PUNCH invocation that
// returned a Done query — the ground truth DoneQueries must match.
type countingPunch struct {
	inner punch.Punch
	done  int64
}

func (p *countingPunch) Name() string { return p.inner.Name() }

func (p *countingPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	r := p.inner.Step(ctx, qr)
	if r.Self.State == query.Done {
		atomic.AddInt64(&p.done, 1)
	}
	return r
}

// TestDoneQueriesBarrierAsyncAgree: on the regression corpus both engines
// must account Done queries the same way — DoneQueries equals the number
// of Done results PUNCH actually produced. (Exact cross-engine equality
// of the raw counts is NOT an invariant: scheduling order changes which
// queries get answered by summary reuse, so the two engines legitimately
// create different query populations.) The barrier engine used to fail
// this whenever the root completed mid-batch: every sibling Done result
// of the final batch went uncounted.
func TestDoneQueriesBarrierAsyncAgree(t *testing.T) {
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
			q0 := AssertionQuestion(prog)
			for _, threads := range []int{1, 8} {
				bp := &countingPunch{inner: maymust.New()}
				barrier := New(prog, Options{Punch: bp, MaxThreads: threads, MaxIterations: 60000}).Run(q0)
				if barrier.DoneQueries != bp.done {
					t.Errorf("barrier threads=%d: DoneQueries=%d, but PUNCH produced %d Done results",
						threads, barrier.DoneQueries, bp.done)
				}
				ap := &countingPunch{inner: maymust.New()}
				async := New(prog, Options{Punch: ap, MaxThreads: threads, MaxIterations: 60000, Async: true}).Run(q0)
				// With one worker no result can become obsolete mid-run,
				// so the streaming count is exact; with more workers a
				// result whose subtree was GC'd concurrently is dropped,
				// so DoneQueries may only undercount the PUNCH total.
				if threads == 1 && async.DoneQueries != ap.done {
					t.Errorf("async threads=1: DoneQueries=%d, but PUNCH produced %d Done results",
						async.DoneQueries, ap.done)
				}
				if async.DoneQueries > ap.done {
					t.Errorf("async threads=%d: DoneQueries=%d exceeds PUNCH total %d",
						threads, async.DoneQueries, ap.done)
				}
				if barrier.Verdict != async.Verdict {
					t.Fatalf("threads=%d: verdicts diverge: barrier %v, async %v",
						threads, barrier.Verdict, async.Verdict)
				}
			}
		})
	}
}

// rewakePunch scripts the satellite-5 scenario: the root is mid-PUNCH
// when its second child completes (arming the rewake flag) and the run is
// cancelled before the root returns. The returned Blocked root must NOT
// be re-enqueued after stop.
type rewakePunch struct {
	rootInFlight chan struct{} // closed when the root's 2nd slice starts
	rootRelease  chan struct{} // closed by the test to let it return
	c2Release    chan struct{} // closed by the test to let c2 complete
	mu           sync.Mutex
	calls        map[query.ID]int
	kids         []query.ID
}

func newRewakePunch() *rewakePunch {
	return &rewakePunch{
		rootInFlight: make(chan struct{}),
		rootRelease:  make(chan struct{}),
		c2Release:    make(chan struct{}),
		calls:        map[query.ID]int{},
	}
}

func (p *rewakePunch) Name() string { return "rewake" }

func (p *rewakePunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	p.calls[qr.ID]++
	calls := p.calls[qr.ID]
	switch {
	case qr.Parent == query.NoParent && calls == 1:
		c1 := ctx.Alloc.New(qr.ID, summary.Question{Proc: "a"})
		c2 := ctx.Alloc.New(qr.ID, summary.Question{Proc: "b"})
		p.kids = []query.ID{c1.ID, c2.ID}
		p.mu.Unlock()
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: []*query.Query{c1, c2}, Cost: 1}
	case qr.Parent == query.NoParent:
		p.mu.Unlock()
		close(p.rootInFlight)
		<-p.rootRelease
		qr.State = query.Blocked
		return punch.Result{Self: qr, Cost: 1}
	case qr.ID == p.kids[0]:
		p.mu.Unlock()
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 1}
	default:
		p.mu.Unlock()
		<-p.c2Release
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 1}
	}
}

// TestAsyncRewakeUnderCancellation (satellite): a parent mid-PUNCH whose
// child completes just as the run is cancelled must not be re-enqueued
// after stop — the run terminates with all workers joined and no
// send-after-stop. Run under -race by the Makefile's race target.
func TestAsyncRewakeUnderCancellation(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	baseline := runtime.NumGoroutine()
	p := newRewakePunch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One event per retired Done query: retire wakes the parent (or arms
	// its rewake) before it emits EvGC. The tracer runs under the
	// scheduler lock, so the buffer holds more than the run's few EvGCs
	// and a send never blocks.
	retired := make(chan struct{}, 64)
	resCh := make(chan Result, 1)
	go func() {
		resCh <- New(prog, Options{
			Punch:         p,
			MaxThreads:    2,
			MaxIterations: 1000,
			Async:         true,
			Tracer: tracerFunc(func(ev obs.Event) {
				if ev.Type == obs.EvGC {
					retired <- struct{}{}
				}
			}),
		}).RunContext(ctx, summary.Question{Proc: "main"})
	}()

	await := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	await(p.rootInFlight, "root's second PUNCH slice")
	close(p.c2Release) // c2 completes while the root is mid-PUNCH → rewake armed
	// Wait until c1 and c2 are both retired.
	for n := 0; n < 2; n++ {
		select {
		case <-retired:
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for c2's completion event")
		}
	}
	cancel()
	// Give the cancellation watcher time to halt the scheduler before the
	// root's PUNCH returns Blocked with its rewake flag set.
	time.Sleep(50 * time.Millisecond)
	close(p.rootRelease)

	select {
	case res := <-resCh:
		if res.StopReason != StopCancelled {
			t.Fatalf("stop reason = %v, want cancelled", res.StopReason)
		}
		if res.Verdict != Unknown {
			t.Fatalf("verdict = %v", res.Verdict)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not terminate: rewake was re-enqueued after stop")
	}
	waitForGoroutines(t, baseline)
}

// TestAsyncPushAfterStopIsNoop: the scheduler's enqueue guard — the
// send-after-stop half of the rewake protocol.
func TestAsyncPushAfterStopIsNoop(t *testing.T) {
	s := &asyncState{
		queued: map[query.ID]bool{},
		deques: make([][]*query.Query, 1),
		r:      &reducer{},
	}
	s.cond = sync.NewCond(&s.mu)
	alloc := &query.Allocator{}
	q := alloc.New(query.NoParent, summary.Question{Proc: "p"})
	s.mu.Lock()
	s.halt(StopCancelled)
	s.push(0, q)
	if len(s.deques[0]) != 0 || s.queued[q.ID] {
		t.Fatal("push after stop enqueued work")
	}
	if s.reason != StopCancelled {
		t.Fatalf("halt reason = %v", s.reason)
	}
	// A later halt must not overwrite the first reason.
	s.halt(StopDeadlocked)
	if s.reason != StopCancelled {
		t.Fatalf("second halt overwrote reason: %v", s.reason)
	}
	s.mu.Unlock()
}

// TestStopReasonBudgets: each budget knob reports its own reason.
func TestStopReasonBudgets(t *testing.T) {
	prog := parser.MustParse(relationalToySource())
	q0 := AssertionQuestion(prog)

	for _, async := range []bool{false, true} {
		res := New(prog, Options{Punch: maymust.New(), MaxThreads: 2, MaxIterations: 1 << 19,
			MaxVirtualTicks: 10, Async: async}).Run(q0)
		if res.Verdict == Unknown && res.StopReason != StopTickBudget {
			t.Errorf("async=%v tick budget: reason %v", async, res.StopReason)
		}
		res = New(prog, Options{Punch: maymust.New(), MaxThreads: 2, MaxIterations: 3, Async: async}).Run(q0)
		if res.Verdict == Unknown && res.StopReason != StopEventBudget {
			t.Errorf("async=%v event budget: reason %v", async, res.StopReason)
		}
		if res.Verdict == Unknown && !res.StopReason.Exhausted() {
			t.Errorf("async=%v: %v is not a budget stop", async, res.StopReason)
		}
		res = New(prog, Options{Punch: maymust.New(), MaxThreads: 2, MaxIterations: 1 << 19,
			RealTimeout: time.Nanosecond, Async: async}).Run(q0)
		if res.Verdict == Unknown && res.StopReason != StopWallTimeout {
			t.Errorf("async=%v wall budget: reason %v", async, res.StopReason)
		}
	}

	dres := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 2, MaxRounds: 2}).Run(q0)
	if dres.Verdict == Unknown && dres.StopReason != StopEventBudget {
		t.Errorf("distributed round budget: reason %v", dres.StopReason)
	}
	ok := New(prog, Options{Punch: maymust.New(), MaxThreads: 2, MaxIterations: 1 << 19}).
		Run(AssertionQuestion(parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)))
	_ = ok
}

// TestStopReasonRootAnswered: a completed run reports root-answered on
// all three engines.
func TestStopReasonRootAnswered(t *testing.T) {
	prog := parser.MustParse(`globals g;
proc main { g = 0; inc(); assert(g <= 1); }
proc inc { g = g + 1; }`)
	q0 := AssertionQuestion(prog)
	for _, async := range []bool{false, true} {
		res := New(prog, Options{Punch: maymust.New(), MaxThreads: 4, MaxIterations: 60000, Async: async}).Run(q0)
		if res.Verdict != Safe || res.StopReason != StopRootAnswered {
			t.Errorf("async=%v: %v / %v", async, res.Verdict, res.StopReason)
		}
	}
	dres := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 2}).Run(q0)
	if dres.Verdict != Safe || dres.StopReason != StopRootAnswered {
		t.Errorf("distributed: %v / %v", dres.Verdict, dres.StopReason)
	}
}
