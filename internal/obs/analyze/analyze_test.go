package analyze_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/summary"
)

// chainPunch scripts a pure chain of calls: the root spawns one child,
// which spawns one child, ... to the given depth; every invocation
// costs chainCost ticks and every parent needs a second slice after its
// child's answer wakes it. The causality DAG is a single chain, so
// span == work by construction.
const chainCost = 100

type chainPunch struct {
	mu    sync.Mutex
	depth int
	calls map[query.ID]int
	level map[query.ID]int
}

func newChainPunch(depth int) *chainPunch {
	return &chainPunch{depth: depth, calls: map[query.ID]int{}, level: map[query.ID]int{}}
}

func (p *chainPunch) Name() string { return "chain" }

func (p *chainPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[qr.ID]++
	lvl := p.level[qr.ID] // root's zero value is its level
	switch {
	case p.calls[qr.ID] == 1 && lvl < p.depth:
		c := ctx.Alloc.New(qr.ID, summary.Question{Proc: fmt.Sprintf("lvl%d", lvl+1)})
		p.level[c.ID] = lvl + 1
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: []*query.Query{c}, Cost: chainCost}
	default:
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: chainCost}
	}
}

// fanPunch scripts a fan-out: the root spawns width independent
// children (each one expensive slice), then finishes after the last
// answer wakes it. Span is root + one child + root; work is all of
// them.
type fanPunch struct {
	mu    sync.Mutex
	calls map[query.ID]int
	width int
}

func newFanPunch(width int) *fanPunch {
	return &fanPunch{width: width, calls: map[query.ID]int{}}
}

func (p *fanPunch) Name() string { return "fan" }

func (p *fanPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[qr.ID]++
	if qr.Parent == query.NoParent && p.calls[qr.ID] == 1 {
		kids := make([]*query.Query, p.width)
		for i := range kids {
			kids[i] = ctx.Alloc.New(qr.ID, summary.Question{Proc: fmt.Sprintf("leaf%d", i)})
		}
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: kids, Cost: 1}
	}
	qr.State, qr.Outcome = query.Done, query.Unreachable
	cost := int64(1)
	if qr.Parent != query.NoParent {
		cost = 1000
	}
	return punch.Result{Self: qr, Cost: cost}
}

func runScripted(t *testing.T, p punch.Punch, threads int, tr obs.Tracer) core.Result {
	t.Helper()
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	res := core.New(prog, core.Options{
		Punch:         p,
		MaxThreads:    threads,
		VirtualCores:  8,
		MaxIterations: 1 << 16,
		Tracer:        tr,
	}).Run(summary.Question{Proc: "main"})
	if res.Verdict != core.Safe {
		t.Fatalf("scripted run verdict = %v, want Safe", res.Verdict)
	}
	return res
}

// TestChainSpanEqualsSequentialMakespan: on a pure chain of calls the
// critical path IS the whole run — span == work == the sequential
// (1-thread) makespan.
func TestChainSpanEqualsSequentialMakespan(t *testing.T) {
	const depth = 4
	rec := &obs.Recording{}
	res := runScripted(t, newChainPunch(depth), 1, rec)

	rep, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	// Spans: the root and each non-leaf run twice (spawn slice + resume
	// slice), the leaf once.
	wantSpans := 2*depth + 1
	wantWork := int64(wantSpans) * chainCost
	if rep.Spans != wantSpans {
		t.Errorf("spans = %d, want %d", rep.Spans, wantSpans)
	}
	if rep.WorkTicks != wantWork {
		t.Errorf("work = %d, want %d", rep.WorkTicks, wantWork)
	}
	if rep.SpanTicks != rep.WorkTicks {
		t.Errorf("chain span = %d, want == work %d (every span is on the critical path)",
			rep.SpanTicks, rep.WorkTicks)
	}
	if rep.MakespanTicks != res.VirtualTicks {
		t.Errorf("trace makespan = %d, engine reported %d", rep.MakespanTicks, res.VirtualTicks)
	}
	if rep.SpanTicks != rep.MakespanTicks {
		t.Errorf("chain span = %d, want == sequential makespan %d",
			rep.SpanTicks, rep.MakespanTicks)
	}
	if len(rep.CriticalPath) != wantSpans {
		t.Errorf("critical path has %d steps, want all %d spans", len(rep.CriticalPath), wantSpans)
	}
	if rep.MaxSpeedup != 1 {
		t.Errorf("max speedup = %.2f, want exactly 1 on a chain", rep.MaxSpeedup)
	}
	// Every parent spent time blocked on its child.
	if rep.TotalBlockedTicks <= 0 {
		t.Errorf("total blocked ticks = %d, want > 0 (parents block on children)", rep.TotalBlockedTicks)
	}
	// The what-if model must say parallelism cannot help a chain.
	for _, row := range rep.WhatIf {
		if row.LowerTicks != rep.SpanTicks {
			t.Errorf("what-if at %d workers predicts %d, want span %d (chains don't scale)",
				row.Workers, row.LowerTicks, rep.SpanTicks)
		}
	}
}

// TestFanOutSpanBelowWork: with independent children the critical path
// is root + one child + root's resume; everything else is parallel
// slack.
func TestFanOutSpanBelowWork(t *testing.T) {
	const width = 8
	rec := &obs.Recording{}
	runScripted(t, newFanPunch(width), width, rec)

	rep, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	wantWork := int64(2 + 1000*width)
	if rep.WorkTicks != wantWork {
		t.Errorf("work = %d, want %d", rep.WorkTicks, wantWork)
	}
	wantSpan := int64(1 + 1000 + 1)
	if rep.SpanTicks != wantSpan {
		t.Errorf("fan-out span = %d, want %d (root + one leaf + resume)", rep.SpanTicks, wantSpan)
	}
	if rep.SpanTicks >= rep.WorkTicks {
		t.Errorf("fan-out span %d not below work %d", rep.SpanTicks, rep.WorkTicks)
	}
	if rep.MaxSpeedup < 7 {
		t.Errorf("max speedup = %.2f, want near %d on a %d-wide fan-out", rep.MaxSpeedup, width, width)
	}
	if len(rep.CriticalPath) != 3 {
		t.Errorf("critical path has %d steps, want 3", len(rep.CriticalPath))
	}
	// The infinite-workers row is the span itself; finite rows respect
	// lower <= upper and lower >= span.
	last := rep.WhatIf[len(rep.WhatIf)-1]
	if last.Workers != 0 || last.LowerTicks != rep.SpanTicks || last.UpperTicks != rep.SpanTicks {
		t.Errorf("infinite-workers row = %+v, want span %d", last, rep.SpanTicks)
	}
	for _, row := range rep.WhatIf {
		if row.LowerTicks > row.UpperTicks || row.LowerTicks < rep.SpanTicks {
			t.Errorf("what-if row %+v violates span <= lower <= upper", row)
		}
	}
}

// TestAnalyzeJSONLRoundTrip: analyzing a stream after a JSONL
// round-trip yields the identical report. The run is single-threaded so
// both sinks see the same arrival order.
func TestAnalyzeJSONLRoundTrip(t *testing.T) {
	rec := &obs.Recording{}
	var buf bytes.Buffer
	jt := obs.NewJSONLTracer(&buf)
	runScripted(t, newChainPunch(3), 1, obs.Tee(rec, jt))
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}

	direct, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := analyze.LoadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	viaJSONL, err := analyze.Analyze(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaJSONL) {
		t.Errorf("report changed across the JSONL round trip:\n direct %+v\n jsonl  %+v", direct, viaJSONL)
	}
}

// TestWhatIfPredictionMatchesObserved: on a parallelism-rich real check
// the model's lower bound at the measured thread count must land within
// 25% of the streaming engine's observed makespan (the acceptance bar
// for the what-if report). The thread count is chosen so the balance
// bound work/p dominates the span, which is the regime the engine's
// virtual clock models (it balances cost over the simulated cores
// without precedence stalls — see DESIGN.md on the model's assumptions).
func TestWhatIfPredictionMatchesObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real check (~3s)")
	}
	// Two threads simulate two cores: the engine never gives a run more
	// virtual cores than threads.
	const cores = 2
	rec := &obs.Recording{}
	opts := harness.Options{Async: true, Tracer: rec}
	check := drivers.NamedCheck("parport", "PowerUpFail", false)
	par := harness.RunCheck(check, cores, opts)
	if par.Ticks <= 0 {
		t.Fatalf("streaming run reported makespan %d", par.Ticks)
	}
	rep, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	pred := rep.PredictMakespan(cores)
	diff := float64(pred-par.Ticks) / float64(par.Ticks)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.25 {
		t.Errorf("predicted makespan at %d workers = %d, observed %d (%.0f%% off, want within 25%%)",
			cores, pred, par.Ticks, diff*100)
	}
}

// TestMeterFit: ns per tick is the steps' wall time over their cost, the
// rank correlation is taken with ties at their mean rank, and the worst
// predicted steps come largest error first.
func TestMeterFit(t *testing.T) {
	var events []obs.Event
	step := func(q query.ID, proc string, cost, wallNs int64) {
		events = append(events,
			obs.Event{Type: obs.EvPunchStart, Query: q, Proc: proc},
			obs.Event{Type: obs.EvPunchEnd, Query: q, Proc: proc, Cost: cost, N: wallNs})
	}
	step(1, "main", 10, 1000)
	step(2, "a", 20, 2000)
	step(3, "b", 20, 2000)
	step(4, "c", 40, 9000) // the clock's slowest, and the one cost misses most
	step(5, "d", 10, 0)    // no wall time: not a step of the fit
	rep, err := analyze.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Meter
	if m == nil || m.Steps != 4 {
		t.Fatalf("meter fit %+v, want 4 steps", m)
	}
	if want := 14000.0 / 90; m.NsPerTick != want {
		t.Fatalf("ns per tick %v, want %v", m.NsPerTick, want)
	}
	if m.Spearman < 0.999 {
		t.Fatalf("cost and wall rank the steps alike, Spearman %v", m.Spearman)
	}
	if len(m.Worst) != 4 || m.Worst[0].Proc != "c" || m.Worst[0].PredictedNs != int64(40*m.NsPerTick) {
		t.Fatalf("worst predicted %+v, want c first", m.Worst)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil || !bytes.Contains(buf.Bytes(), []byte("ns per tick")) {
		t.Fatalf("text report lacks the meter section (%v):\n%s", err, buf.String())
	}
}
