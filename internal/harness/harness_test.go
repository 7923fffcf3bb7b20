package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drivers"
)

func TestRunCheckSequentialAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("driver verification is not short")
	}
	check := drivers.NamedCheck("parport", "MarkPowerDown", false)
	opts := Options{WallBudget: 180 * time.Second}
	seq := RunCheck(check, 1, opts)
	if seq.StopReason.Exhausted() && seq.Verdict == core.Unknown {
		t.Skip("wall budget exhausted (slow or loaded machine)")
	}
	if seq.Verdict != core.Safe {
		t.Fatalf("sequential verdict = %v", seq.Verdict)
	}
	par := RunCheck(check, 8, opts)
	if par.StopReason.Exhausted() && par.Verdict == core.Unknown {
		t.Skip("wall budget exhausted (slow or loaded machine)")
	}
	if par.Verdict != core.Safe {
		t.Fatalf("parallel verdict = %v", par.Verdict)
	}
	if par.Ticks <= 0 || seq.Ticks <= 0 {
		t.Fatal("missing virtual time")
	}
	if par.Ticks > seq.Ticks {
		t.Errorf("parallel slower than sequential: %d > %d", par.Ticks, seq.Ticks)
	}
	if len(seq.Trace) == 0 {
		t.Error("no instrumentation trace")
	}
}

func TestTableRenderers(t *testing.T) {
	rows := []Table1Row{{
		Check:    drivers.NamedCheck("parport", "MarkPowerDown", false),
		Ticks:    map[int]int64{1: 100, 2: 60, 4: 40, 8: 30, 16: 30, 32: 30, 64: 30, 128: 30},
		Speedup:  map[int]float64{1: 1, 2: 1.67, 4: 2.5, 8: 3.33, 16: 3.33, 32: 3.33, 64: 3.33, 128: 3.33},
		Verdicts: map[int]core.Verdict{},
	}}
	var b strings.Builder
	WriteTable1(&b, rows)
	if !strings.Contains(b.String(), "parport/MarkPowerDown") {
		t.Error("table 1 missing check id")
	}

	b.Reset()
	WriteTable2(&b, Table2Result{Checks: 3, SeqTicks: 300, ParTicks: 100, AvgSpeedup: 3, MaxSpeedup: 4, MaxCheck: "x/y"})
	if !strings.Contains(b.String(), "3.00x") || !strings.Contains(b.String(), "4.00x") {
		t.Errorf("table 2 rendering: %s", b.String())
	}

	b.Reset()
	WriteTable3(&b, []Table3Row{{
		Check:      drivers.NamedCheck("selsusp", "IrqlExAllocatePool", false),
		SeqTimeout: true,
		ParVerdict: core.Safe,
		ParTicks:   123,
	}}, 999)
	out := b.String()
	if !strings.Contains(out, "TO") || !strings.Contains(out, "Proof") {
		t.Errorf("table 3 rendering: %s", out)
	}

	b.Reset()
	WriteTable4(&b, []Table4Row{{
		Check:   drivers.NamedCheck("toastmon", "PnpIrpCompletion", false),
		Queries: map[int]int64{2: 10, 4: 11, 8: 12, 16: 12, 32: 12, 64: 12, 128: 12},
	}})
	if !strings.Contains(b.String(), "PnpIrpCompletion") {
		t.Error("table 4 missing property")
	}

	b.Reset()
	WriteSeries(&b, "t", []Series{{Label: "l", Points: [][2]int64{{0, 1}, {5, 2}}}})
	if !strings.Contains(b.String(), "# l") {
		t.Error("series rendering")
	}
}

// TestWriteWrongVerdicts: a definite verdict that contradicts the check's
// known answer is named, whichever table it is in; Unknown and the
// known answer itself are not.
func TestWriteWrongVerdicts(t *testing.T) {
	safe := drivers.NamedCheck("parport", "MarkPowerDown", false)
	buggy := drivers.NamedCheck("parport", "PowerDownFail", true)
	t1 := []Table1Row{
		{Check: safe, Verdicts: map[int]core.Verdict{1: core.Safe, 2: core.Unknown, 8: core.ErrorReachable}},
		{Check: buggy, Verdicts: map[int]core.Verdict{1: core.ErrorReachable, 4: core.Safe}},
	}
	t2 := Table2Result{Wrong: appendWrong(nil, safe, 64, core.ErrorReachable)}
	t3 := []Table3Row{{Check: safe, ParVerdict: core.Safe}, {Check: buggy, ParVerdict: core.Safe}}

	var b strings.Builder
	if n := WriteWrongVerdicts(&b, t1, t2, t3); n != 4 {
		t.Errorf("%d wrong verdicts, want 4:\n%s", n, b.String())
	}
	for _, want := range []string{
		"parport/MarkPowerDown at 8 threads: Error Reachable, known answer Program is Safe",
		"parport/PowerDownFail at 4 threads: Program is Safe, known answer Error Reachable",
		"parport/MarkPowerDown at 64 threads",
		"parport/PowerDownFail at 64 threads",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}

	b.Reset()
	if n := WriteWrongVerdicts(&b, t1[:1], Table2Result{}, t3[:1]); n != 1 {
		t.Errorf("%d wrong verdicts, want 1:\n%s", n, b.String())
	}
	if n := WriteWrongVerdicts(&b, nil, Table2Result{}, nil); n != 0 {
		t.Errorf("empty tables reported %d wrong verdicts", n)
	}
}

func TestFig6DerivedFromTable1(t *testing.T) {
	rows := []Table1Row{{
		Check:   drivers.NamedCheck("parport", "MarkPowerDown", false),
		Ticks:   map[int]int64{},
		Speedup: map[int]float64{1: 1, 2: 2, 4: 3, 8: 3.5, 16: 3.5, 32: 3.5, 64: 3.5, 128: 3.5},
	}}
	series := Fig6(rows)
	if len(series) != 1 || len(series[0].Points) != len(ThreadSteps) {
		t.Fatalf("series shape: %+v", series)
	}
	// Points are (threads, speedup*100).
	if series[0].Points[1][0] != 2 || series[0].Points[1][1] != 200 {
		t.Errorf("point = %v", series[0].Points[1])
	}
}

func TestPlotSeries(t *testing.T) {
	var b strings.Builder
	PlotSeries(&b, "test plot", []Series{
		{Label: "ready", Points: [][2]int64{{0, 1}, {50, 8}, {100, 4}}},
		{Label: "batch", Points: [][2]int64{{0, 2}, {100, 2}}},
	}, 40, 8)
	out := b.String()
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "* = ready") || !strings.Contains(out, "o = batch") {
		t.Fatalf("plot rendering:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data markers plotted")
	}
	// Degenerate inputs must not panic.
	PlotSeries(&b, "empty", nil, 0, 0)
	PlotSeries(&b, "flat", []Series{{Label: "l", Points: [][2]int64{{0, 0}}}}, 10, 4)
}

// TestRunCheckStopReason: the harness must surface the engine's stop
// reason instead of conflating every Unknown verdict with a timeout.
func TestRunCheckStopReason(t *testing.T) {
	check := drivers.NamedCheck("parport", "MarkPowerDown", false)

	// An exhausted tick budget is a timeout...
	r := RunCheck(check, 4, Options{TickBudget: 1})
	if r.StopReason != core.StopTickBudget {
		t.Fatalf("stop reason %v, want tick-budget", r.StopReason)
	}
	if !r.StopReason.Exhausted() {
		t.Fatalf("tick budget: %v is not a budget stop", r.StopReason)
	}

	// ...but a cancelled run is not.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = RunCheck(check, 4, Options{Ctx: ctx})
	if r.StopReason != core.StopCancelled {
		t.Fatalf("stop reason %v, want cancelled", r.StopReason)
	}
	if r.StopReason.Exhausted() {
		t.Fatalf("cancelled run misreported as a budget stop")
	}
	if r.Verdict != core.Unknown {
		t.Fatalf("cancelled verdict %v", r.Verdict)
	}
}
