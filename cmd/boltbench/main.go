// Command boltbench regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic driver suite.
//
// Usage:
//
//	boltbench -all
//	boltbench -table 1   (also 2, 3, 4)
//	boltbench -fig 3     (also 6, 7)
//
// Timing is virtual: see internal/harness for the cost model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	bolt "repro"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate table 1..4")
		fig       = flag.Int("fig", 0, "regenerate figure 3, 6 or 7")
		all       = flag.Bool("all", false, "regenerate everything")
		maxChecks = flag.Int("suite", 110, "suite subset size for table 2 (0 = all 495)")
		hard      = flag.Int64("hard", 200000, "sequential ticks for a check to count as hard (table 2)")
		wall      = flag.Duration("wall", 120*time.Second, "wall-clock safety budget per run")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole bench; expiry cancels in-flight checks (0 = none)")
		async     = flag.Bool("async", false, "run every check with the streaming work-stealing engine")
		pprofA    = flag.String("pprof", "", "serve /debug/pprof, /metrics and /debug/bolt/{state,flight,health} on this address for the bench's duration")
	)
	flag.Parse()
	// The bench loop runs checks back to back, so one shared registry,
	// inspector and flight ring observe the whole suite: /metrics
	// accumulates across runs, /debug/bolt/state shows whichever check
	// is in flight right now.
	var liveReg *obs.Metrics
	var insp *bolt.Inspector
	var flightTr obs.Tracer // interface-typed only when a recorder exists (typed-nil would defeat engine nil checks)
	if *pprofA != "" {
		liveReg = obs.NewMetrics()
		insp = bolt.NewInspector()
		flight := obs.NewFlightRecorder(0)
		flightTr = flight
		addr, err := obs.StartDebugServer(*pprofA, bolt.DebugState(liveReg, insp, flight, nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "debug: serving /debug/pprof, /metrics and /debug/bolt/{state,flight,health} on http://%s\n", addr)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := harness.Options{
		WallBudget:  *wall,
		Async:       *async,
		Ctx:         ctx,
		MetricsInto: liveReg,
		Probe:       insp.Probe(),
		Tracer:      flightTr,
	}

	did := false
	run := func(n int, f func()) {
		if *all || *table == n {
			f()
			did = true
			fmt.Println()
		}
	}
	runFig := func(n int, f func()) {
		if *all || *fig == n {
			f()
			did = true
			fmt.Println()
		}
	}

	var table1Rows []harness.Table1Row
	var table2 harness.Table2Result
	var table3Rows []harness.Table3Row
	run(1, func() {
		table1Rows = harness.Table1(opts)
		harness.WriteTable1(os.Stdout, table1Rows)
	})
	run(2, func() {
		table2 = harness.Table2(opts, 64, *hard, *maxChecks)
		harness.WriteTable2(os.Stdout, table2)
	})
	run(3, func() {
		var budget int64
		table3Rows, budget = harness.Table3(opts)
		harness.WriteTable3(os.Stdout, table3Rows, budget)
	})
	run(4, func() {
		harness.WriteTable4(os.Stdout, harness.Table4(opts))
	})
	runFig(3, func() {
		s := harness.Fig3(opts)
		harness.PlotSeries(os.Stdout, "Figure 3: Ready sub-queries over virtual time (sequential)", []harness.Series{s}, 72, 16)
		harness.WriteSeries(os.Stdout, "series data:", []harness.Series{s})
	})
	runFig(6, func() {
		if table1Rows == nil {
			table1Rows = harness.Table1(opts)
		}
		series := harness.Fig6(table1Rows)
		harness.PlotSeries(os.Stdout, "Figure 6: speedup (x100) vs threads", series, 72, 16)
		harness.WriteSeries(os.Stdout, "series data:", series)
	})
	runFig(7, func() {
		series := harness.Fig7(opts)
		harness.PlotSeries(os.Stdout, "Figure 7: queries processed in parallel over virtual time", series, 72, 16)
		harness.WriteSeries(os.Stdout, "series data:", series)
	})
	if !did {
		flag.Usage()
		os.Exit(2)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "boltbench: global -timeout expired; remaining runs were cancelled (stop reason %q)\n", "cancelled")
		os.Exit(2)
	}
	// A regenerated table with a wrong answer in it must not pass for a
	// result: every check's answer is known from how it was generated.
	if harness.WriteWrongVerdicts(os.Stderr, table1Rows, table2, table3Rows) > 0 {
		os.Exit(1)
	}
}
