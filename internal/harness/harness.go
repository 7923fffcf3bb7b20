// Package harness runs the paper's experiments (§5) on the synthetic
// driver suite and renders every table and figure of the evaluation.
//
// Timing is reported in virtual ticks: each PUNCH invocation's abstract
// work is charged to a simulated worker, and a MAP stage advances the
// clock by the batch's makespan on the configured number of cores. On the
// paper's 8-core workstation wall-clock time plays this role; virtual time
// makes the speedup shapes reproducible on any hardware (including the
// single-core machine this reproduction was developed on).
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/obs"
	"repro/internal/punch/maymust"
)

// paperCores is the simulated core count every experiment runs on: the
// paper's machine has 8. A run with fewer threads uses as many cores as
// threads.
const paperCores = 8

// Options configure experiment runs. Every run uses the may-must PUNCH,
// as the paper's evaluation does.
type Options struct {
	// TickBudget is the virtual-time limit per check (the paper's 3000 s
	// wall-clock budget scaled to ticks). 0 = no limit.
	TickBudget int64
	// WallBudget bounds real time per check as a safety net.
	WallBudget time.Duration
	// Async runs every check with the streaming work-stealing engine
	// instead of the paper's bulk-synchronous MAP/REDUCE loop.
	Async bool
	// Ctx, when set, cancels in-flight runs: a check observing the
	// cancellation returns with StopReason core.StopCancelled. Nil means
	// no external cancellation.
	Ctx context.Context
	// MetricsInto, when non-nil, is a shared live registry every run
	// accumulates into: boltbench hands the same registry to
	// obs.StartDebugServer so /metrics scrapes observe runs in flight.
	MetricsInto *obs.Metrics
	// Probe, when non-nil, receives each run's live-state snapshot
	// function (see core.Options.Probe); runs attach and detach in turn.
	Probe *obs.Probe
	// Tracer, when set, receives every run's query-lifecycle events.
	Tracer obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.WallBudget == 0 {
		o.WallBudget = 60 * time.Second
	}
	return o
}

// CheckResult is the outcome of one check under one thread count.
type CheckResult struct {
	Check   drivers.Check
	Threads int
	Verdict core.Verdict
	Ticks   int64
	Wall    time.Duration
	Queries int64
	Peak    int
	Trace   []core.IterSample
	// StopReason says why the run ended: an Unknown verdict from a spent
	// budget, a deadlock and a cancellation each report their own.
	StopReason core.StopReason
}

// RunCheck verifies one driver-property pair with the given thread count.
func RunCheck(check drivers.Check, threads int, opts Options) CheckResult {
	opts = opts.withDefaults()
	prog := drivers.Generate(check.Config)
	eng := core.New(prog, core.Options{
		Punch:           maymust.New(),
		MaxThreads:      threads,
		VirtualCores:    paperCores,
		MaxVirtualTicks: opts.TickBudget,
		RealTimeout:     opts.WallBudget,
		MaxIterations:   1 << 19,
		Async:           opts.Async,
		Tracer:          opts.Tracer,
		Metrics:         opts.MetricsInto,
		Probe:           opts.Probe,
	})
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := eng.RunContext(ctx, core.AssertionQuestion(prog))
	return CheckResult{
		Check:      check,
		Threads:    threads,
		Verdict:    res.Verdict,
		Ticks:      res.VirtualTicks,
		Wall:       res.WallTime,
		Queries:    res.TotalQueries,
		Peak:       res.PeakReady,
		Trace:      res.Trace,
		StopReason: res.StopReason,
	}
}

// ThreadSteps is the thread-count ladder of Table 1.
var ThreadSteps = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Table1Checks are the six checks of Table 1.
func Table1Checks() []drivers.Check {
	return []drivers.Check{
		drivers.NamedCheck("toastmon", "PendedCompletedRequest", false),
		drivers.NamedCheck("toastmon", "PnpIrpCompletion", false),
		drivers.NamedCheck("parport", "MarkPowerDown", false),
		drivers.NamedCheck("parport", "PowerDownFail", false),
		drivers.NamedCheck("parport", "PowerUpFail", false),
		drivers.NamedCheck("parport", "RemoveLockMnSurpriseRemove", false),
	}
}

// Table1Row is one check's times and speedups across the thread ladder.
type Table1Row struct {
	Check    drivers.Check
	Ticks    map[int]int64
	Speedup  map[int]float64
	Verdicts map[int]core.Verdict
}

// Table1 runs the six named checks across the thread ladder.
func Table1(opts Options) []Table1Row {
	var rows []Table1Row
	for _, check := range Table1Checks() {
		row := Table1Row{
			Check:    check,
			Ticks:    map[int]int64{},
			Speedup:  map[int]float64{},
			Verdicts: map[int]core.Verdict{},
		}
		for _, th := range ThreadSteps {
			r := RunCheck(check, th, opts)
			row.Ticks[th] = r.Ticks
			row.Verdicts[th] = r.Verdict
		}
		base := row.Ticks[1]
		for _, th := range ThreadSteps {
			if row.Ticks[th] > 0 {
				row.Speedup[th] = float64(base) / float64(row.Ticks[th])
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteTable1 renders Table 1 in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: virtual time (ticks) and speedup of parallel BOLT vs sequential\n")
	fmt.Fprintf(w, "(#cores=8; speedup relative to 1 thread)\n\n")
	fmt.Fprintf(w, "%-42s", "Check / Max. Number of Threads")
	fmt.Fprintf(w, "%10s", "1")
	for _, th := range ThreadSteps[1:] {
		fmt.Fprintf(w, "%10d%8s", th, "spd")
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-42s%10d", row.Check.ID(), row.Ticks[1])
		for _, th := range ThreadSteps[1:] {
			fmt.Fprintf(w, "%10d%8.2f", row.Ticks[th], row.Speedup[th])
		}
		fmt.Fprintln(w)
	}
}

// Table2Result is the cumulative summary of Table 2.
type Table2Result struct {
	Checks     int
	SeqTicks   int64
	ParTicks   int64
	AvgSpeedup float64
	MaxSpeedup float64
	MaxCheck   string
	// Wrong names the hard checks' runs whose verdict contradicts the
	// known answer (see WriteWrongVerdicts).
	Wrong []string
}

// Table2 runs the suite's hard checks sequentially and with the given
// thread count (the paper uses 64 threads on 8 cores), reporting
// cumulative times and speedups. hardTicks is the sequential-time
// threshold for a check to count as hard (the paper's "at least 1000
// seconds"); maxChecks bounds the suite subset (0 = all).
func Table2(opts Options, threads int, hardTicks int64, maxChecks int) Table2Result {
	var out Table2Result
	var speedups []float64
	checks := drivers.SuiteChecks()
	if maxChecks > 0 && len(checks) > maxChecks {
		checks = checks[:maxChecks]
	}
	for _, check := range checks {
		seq := RunCheck(check, 1, opts)
		if seq.Ticks < hardTicks {
			continue
		}
		par := RunCheck(check, threads, opts)
		out.Checks++
		out.SeqTicks += seq.Ticks
		out.ParTicks += par.Ticks
		out.Wrong = appendWrong(out.Wrong, check, 1, seq.Verdict)
		out.Wrong = appendWrong(out.Wrong, check, threads, par.Verdict)
		if par.Ticks > 0 {
			s := float64(seq.Ticks) / float64(par.Ticks)
			speedups = append(speedups, s)
			if s > out.MaxSpeedup {
				out.MaxSpeedup = s
				out.MaxCheck = check.ID()
			}
		}
	}
	for _, s := range speedups {
		out.AvgSpeedup += s
	}
	if len(speedups) > 0 {
		out.AvgSpeedup /= float64(len(speedups))
	}
	return out
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, r Table2Result) {
	fmt.Fprintf(w, "Table 2: cumulative results (#threads=64, #cores=8), %d hard checks\n\n", r.Checks)
	fmt.Fprintf(w, "%-40s %12d ticks\n", "Total time taken (sequential)", r.SeqTicks)
	fmt.Fprintf(w, "%-40s %12d ticks\n", "Total time taken (parallel)", r.ParTicks)
	fmt.Fprintf(w, "%-40s %12.2fx\n", "Average observed speedup", r.AvgSpeedup)
	fmt.Fprintf(w, "%-40s %12.2fx  (%s)\n", "Maximum observed speedup", r.MaxSpeedup, r.MaxCheck)
}

// Table3Row is one row of Table 3: a check the sequential analysis cannot
// finish within the budget but parallel BOLT proves.
type Table3Row struct {
	Check      drivers.Check
	SeqTimeout bool
	ParVerdict core.Verdict
	ParTicks   int64
}

// Table3Checks are the five named checks of Table 3.
func Table3Checks() []drivers.Check {
	return []drivers.Check{
		drivers.NamedCheck("daytona", "IoAllocateFree", false),
		drivers.NamedCheck("mouser", "NsRemoveLockMnRemove", false),
		drivers.NamedCheck("featured1", "ForwardedAtBadIrql", false),
		drivers.NamedCheck("incomplete2", "RemoveLockForwardDeviceControl", false),
		drivers.NamedCheck("selsusp", "IrqlExAllocatePool", false),
	}
}

// Table3 reproduces the "sequential times out, parallel proves" rows.
// For each check the tick budget is auto-calibrated to the midpoint
// between the parallel and sequential completion times (the paper fixed a
// 3000 s wall-clock budget that its checks happened to straddle); both
// configurations are then re-run under that budget.
func Table3(opts Options) ([]Table3Row, int64) {
	var rows []Table3Row
	// Calibrate one shared budget (the paper used a global 3000 s limit):
	// above every parallel completion time, below every sequential one,
	// when such a gap exists; otherwise the largest per-check midpoint.
	var maxPar, minSeq, maxMid int64
	minSeq = 1 << 62
	for _, check := range Table3Checks() {
		seqFull := RunCheck(check, 1, opts)
		parFull := RunCheck(check, 64, opts)
		if parFull.Ticks > maxPar {
			maxPar = parFull.Ticks
		}
		if seqFull.Ticks < minSeq {
			minSeq = seqFull.Ticks
		}
		if mid := (seqFull.Ticks + parFull.Ticks) / 2; mid > maxMid {
			maxMid = mid
		}
	}
	budget := maxMid
	if maxPar < minSeq {
		budget = (maxPar + minSeq) / 2
	}
	o := opts
	o.TickBudget = budget
	for _, check := range Table3Checks() {
		seq := RunCheck(check, 1, o)
		par := RunCheck(check, 64, o)
		rows = append(rows, Table3Row{
			Check:      check,
			SeqTimeout: seq.StopReason.Exhausted(),
			ParVerdict: par.Verdict,
			ParTicks:   par.Ticks,
		})
	}
	return rows, budget
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, rows []Table3Row, budget int64) {
	fmt.Fprintf(w, "Table 3: checks where sequential runs out of time (budget %d ticks)\n", budget)
	fmt.Fprintf(w, "and parallel BOLT (#cores=8, 64 threads) produces a result\n\n")
	fmt.Fprintf(w, "%-45s %-6s %-16s %10s\n", "Check", "Seq", "Parallel", "Time")
	for _, r := range rows {
		seq := "ok"
		if r.SeqTimeout {
			seq = "TO"
		}
		fmt.Fprintf(w, "%-45s %-6s %-16s %10d\n", r.Check.ID(), seq, verdictShort(r.ParVerdict), r.ParTicks)
	}
}

func verdictShort(v core.Verdict) string {
	switch v {
	case core.Safe:
		return "Proof"
	case core.ErrorReachable:
		return "Error"
	}
	return "TO"
}

// Table4Row is one property's total query counts across thread counts.
type Table4Row struct {
	Check   drivers.Check
	Queries map[int]int64
}

// Table4 measures the total number of queries for the two toastmon
// properties across the thread ladder (the query-order effect).
func Table4(opts Options) []Table4Row {
	checks := []drivers.Check{
		drivers.NamedCheck("toastmon", "PendedCompletedRequest", false),
		drivers.NamedCheck("toastmon", "PnpIrpCompletion", false),
	}
	var rows []Table4Row
	for _, check := range checks {
		row := Table4Row{Check: check, Queries: map[int]int64{}}
		for _, th := range ThreadSteps[1:] { // paper's table starts at 2
			r := RunCheck(check, th, opts)
			row.Queries[th] = r.Queries
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: total queries performed for varying degrees of parallelism\n")
	fmt.Fprintf(w, "(toastmon, #cores=8)\n\n")
	fmt.Fprintf(w, "%-42s", "Property / Max. Number of Threads")
	for _, th := range ThreadSteps[1:] {
		fmt.Fprintf(w, "%8d", th)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-42s", row.Check.Property)
		for _, th := range ThreadSteps[1:] {
			fmt.Fprintf(w, "%8d", row.Queries[th])
		}
		fmt.Fprintln(w)
	}
}

// appendWrong adds a line naming the run when v is a definite verdict
// that contradicts the check's known answer, Config.Buggy (the oracle
// bench/ holds its runs against too). Unknown contradicts nothing: a
// budget ran out.
func appendWrong(wrong []string, c drivers.Check, threads int, v core.Verdict) []string {
	want := core.Safe
	if c.Config.Buggy {
		want = core.ErrorReachable
	}
	if v == core.Unknown || v == want {
		return wrong
	}
	return append(wrong, fmt.Sprintf("%s at %d threads: %v, known answer %v", c.ID(), threads, v, want))
}

// WriteWrongVerdicts prints one line per run of Tables 1-3 whose verdict
// contradicts its check's known answer and returns how many there were;
// tables that were not regenerated are passed as zero values. Table 4 and
// Figures 3 and 7 re-run two of Table 1's checks and keep no verdict.
func WriteWrongVerdicts(w io.Writer, t1 []Table1Row, t2 Table2Result, t3 []Table3Row) int {
	var wrong []string
	for _, row := range t1 {
		for _, th := range ThreadSteps {
			wrong = appendWrong(wrong, row.Check, th, row.Verdicts[th])
		}
	}
	wrong = append(wrong, t2.Wrong...)
	for _, row := range t3 {
		wrong = appendWrong(wrong, row.Check, 64, row.ParVerdict)
	}
	for _, line := range wrong {
		fmt.Fprintln(w, "wrong verdict:", line)
	}
	return len(wrong)
}

// Series is a (virtual time, value) series for the figures.
type Series struct {
	Label  string
	Points [][2]int64 // (vtime, value)
}

// Fig3 instruments a sequential run and reports the number of Ready
// sub-queries over virtual time (the parallelism opportunity plot).
func Fig3(opts Options) Series {
	check := drivers.NamedCheck("toastmon", "PnpIrpCompletion", false)
	r := RunCheck(check, 1, opts)
	s := Series{Label: "ready queries (sequential, " + check.ID() + ")"}
	for _, smp := range r.Trace {
		s.Points = append(s.Points, [2]int64{smp.VTime, int64(smp.Ready)})
	}
	return s
}

// Fig6 derives the speedup-vs-threads series from Table 1 rows.
func Fig6(rows []Table1Row) []Series {
	var out []Series
	for _, row := range rows {
		s := Series{Label: row.Check.ID()}
		for _, th := range ThreadSteps {
			sp := row.Speedup[th]
			s.Points = append(s.Points, [2]int64{int64(th), int64(sp*100 + 0.5)})
		}
		out = append(out, s)
	}
	return out
}

// Fig7 reports the number of queries processed in parallel over virtual
// time for max-threads 2..64 on toastmon/PnpIrpCompletion (sub-figures
// (a)-(f); 128 is identical to 64 by saturation).
func Fig7(opts Options) []Series {
	check := drivers.NamedCheck("toastmon", "PnpIrpCompletion", false)
	var out []Series
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		r := RunCheck(check, th, opts)
		s := Series{Label: fmt.Sprintf("threads=%d", th)}
		for _, smp := range r.Trace {
			s.Points = append(s.Points, [2]int64{smp.VTime, int64(smp.Processed)})
		}
		out = append(out, s)
	}
	return out
}

// WriteSeries renders series as aligned text columns (and is trivially
// convertible to CSV).
func WriteSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "# %s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(w, "%12d %8d\n", p[0], p[1])
		}
		fmt.Fprintln(w)
	}
}
