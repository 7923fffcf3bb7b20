// Command boltcheck verifies a program against its assertions (or a
// custom reachability question) with the BOLT engine.
//
// Usage:
//
//	boltcheck [flags] program.bolt
//	boltcheck -proc main -pre 'true' -post 'g >= 10' program.bolt
//	boltcheck -dist 3 -faults 'kill=1@3,drop=0.2,seed=42' program.bolt
//	boltcheck -explain -prov-out prov.json program.bolt
//
// Exit status: 0 safe, 1 error reachable, 2 unknown, 3 usage/parsing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	bolt "repro"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/smt"
)

// osExit is swapped out by the exit-path regression tests; every exit
// after the observability side-cars start must go through the bundle's
// fatalf/exit funnels so the flight dump and watchdog shutdown run
// first (os.Exit skips deferred functions).
var osExit = os.Exit

func main() {
	var (
		analysis = flag.String("analysis", "maymust", "intraprocedural analysis: maymust|may|must")
		threads  = flag.Int("threads", 8, "maximum concurrent queries (1 = sequential)")
		async    = flag.Bool("async", false, "use the streaming work-stealing engine instead of bulk-synchronous MAP/REDUCE")
		timeout  = flag.Duration("timeout", 60*time.Second, "wall-clock budget (0 = none)")
		ticks    = flag.Int64("ticks", 0, "virtual-time budget (0 = none)")
		dist     = flag.Int("dist", 0, "run on a simulated cluster with this many nodes (0 = single-machine engine)")
		faults   = flag.String("faults", "", "fault plan for -dist: kill=N@R,drop=P,seed=S (all clauses optional)")
		storeDir = flag.String("store", "", "persistent summary store directory: warm-start from it and persist new summaries back")
		storeRst = flag.Bool("store-reset", false, "with -store, discard and recreate a store whose fingerprint does not match")
		incrFlag = flag.Bool("incr", false, "with -store, incremental re-check: diff the program against the store's manifest, invalidate the edited cone, and reuse the verdict when the edit cannot affect it")
		proc     = flag.String("proc", "", "procedure for a custom reachability question")
		pre      = flag.String("pre", "true", "precondition over globals (with -proc)")
		post     = flag.String("post", "", "postcondition over globals (with -proc)")
		stats    = flag.Bool("stats", false, "print engine statistics")
		wit      = flag.Bool("witness", false, "on Error Reachable, print a concrete counterexample")
		dot      = flag.Bool("dot", false, "print the control-flow graphs in Graphviz DOT format and exit")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (open at ui.perfetto.dev)")
		traceJL  = flag.String("trace-jsonl", "", "stream the run's events to this file as JSON Lines (analyze with boltprof)")
		metrics  = flag.Bool("metrics", false, "collect and print the engine metrics registry")
		pprofA   = flag.String("pprof", "", "serve /debug/pprof, Prometheus /metrics and the /debug/bolt/{state,flight,health} introspection endpoints on this address for the run's duration (also enables pprof labels)")
		watchT   = flag.Duration("watchdog", 0, "sample live engine state at this tick and print a stall diagnosis when progress flatlines (0 = off)")
		watchS   = flag.Duration("watchdog-stall", obs.DefaultWatchdogStall, "with -watchdog, call the run stalled after this long without progress")
		flightD  = flag.String("flight-dump", "", "write the flight recorder's recent-event ring to this JSONL file when the run ends (and at each watchdog stall)")
		explain  = flag.Bool("explain", false, "record verdict provenance and print the dependency-cone report (which procedures and summaries the verdict rests on)")
		provOut  = flag.String("prov-out", "", "record verdict provenance and write it to this JSON file (inspect with boltprof -prov)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: boltcheck [flags] program.bolt")
		flag.PrintDefaults()
		os.Exit(3)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	prog, err := bolt.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	if *dot {
		fmt.Print(prog.Dot())
		os.Exit(0)
	}
	checkFlags(givenFlags(flag.CommandLine))
	an, ok := analyses[*analysis]
	if !ok {
		fmt.Fprintf(os.Stderr, "boltcheck: unknown analysis %q\n", *analysis)
		os.Exit(3)
	}
	ob := newObsBundle(*pprofA, *watchT, *watchS, *flightD)
	var traceOut *os.File
	if *trace != "" {
		traceOut, err = os.Create(*trace)
		if err != nil {
			ob.fatalf("%v", err)
		}
		defer traceOut.Close()
	}
	var traceJLOut *os.File
	if *traceJL != "" {
		traceJLOut, err = os.Create(*traceJL)
		if err != nil {
			ob.fatalf("%v", err)
		}
		defer traceJLOut.Close()
	}
	opts := bolt.Options{
		Analysis:          an,
		Threads:           *threads,
		Timeout:           *timeout,
		MaxVirtualTicks:   *ticks,
		Async:             *async,
		FindWitness:       *wit,
		CollectProvenance: *explain || *provOut != "",
		CollectMetrics:    *metrics,
		MetricsInto:       ob.reg,
		Inspect:           ob.insp,
		FlightRecorder:    ob.flight,
		PprofLabels:       *pprofA != "",
		StorePath:         *storeDir,
		StoreReset:        *storeRst,
		Incremental:       *incrFlag,
	}
	if traceOut != nil {
		opts.TraceTo = traceOut
	}
	if traceJLOut != nil {
		opts.TraceJSONLTo = traceJLOut
	}
	var res bolt.Result
	switch {
	case *dist > 0:
		res, err = checkDistributed(prog, opts, *dist, *faults)
	case *proc != "":
		res, err = prog.CheckReach(*proc, *pre, *post, opts)
	default:
		res = prog.Check(opts)
	}
	if err != nil {
		ob.fatalf("%v", err)
	}
	ob.setProv(res.Provenance)
	if err := reportStore(*storeDir, res.WarmSummaries, res.PersistedSummaries, res.StoreErr); err != nil {
		ob.fatalf("%v", err)
	}
	reportIncr(*incrFlag, res.EditedProcs, res.InvalidatedSummaries, res.SurvivingSummaries, res.ReusedVerdict, res.Cutoff)

	fmt.Println(res.Verdict)
	if res.Verdict == bolt.Unknown || *stats || *dist > 0 {
		fmt.Printf("stop reason:  %s\n", res.StopReason)
	}
	if res.Witness != nil {
		fmt.Print(res.Witness.Text)
	}
	if *stats {
		printStats(res, *dist > 0)
	}
	if *metrics {
		printMetrics(res.Metrics, res.WorkerMetrics)
	}
	if err := reportProv(res.Provenance, *explain, *provOut); err != nil {
		ob.fatalf("%v", err)
	}
	if err := reportTrace(*trace, *traceJL, res.TraceSpans, res.TraceEvents, res.TraceErr); err != nil {
		ob.fatalf("%v", err)
	}
	ob.exit(verdictCode(res.Verdict))
}

// reportProv prints the -explain dependency-cone report and writes the
// -prov-out JSON record.
func reportProv(p *prov.Provenance, explain bool, provOut string) error {
	if p == nil {
		return nil
	}
	if explain {
		fmt.Print(p.Explain())
	}
	if provOut != "" {
		f, err := os.Create(provOut)
		if err != nil {
			return fmt.Errorf("boltcheck: provenance: %w", err)
		}
		err = p.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("boltcheck: provenance: %w", err)
		}
		fmt.Fprintf(os.Stderr, "prov: wrote %s (%d procedures, %d summaries); inspect with boltprof -prov %s\n",
			provOut, len(p.Procedures), len(p.Summaries), provOut)
	}
	return nil
}

// obsBundle holds the live-introspection handles one boltcheck run
// shares between the engine, the debug HTTP server, and the watchdog.
// The zero bundle (no -pprof/-watchdog/-flight-dump) disables all of it.
type obsBundle struct {
	reg    *obs.Metrics
	insp   *bolt.Inspector
	flight *obs.Recording
	wd     *obs.Watchdog
	dump   string
	// prov holds the finished run's provenance record for
	// /debug/bolt/prov (nil until a -explain/-prov-out run completes).
	prov atomic.Pointer[prov.Provenance]
}

// setProv publishes the run's provenance record to /debug/bolt/prov.
func (ob *obsBundle) setProv(p *prov.Provenance) {
	if p != nil {
		ob.prov.Store(p)
	}
}

// provDoc is the /debug/bolt/prov source: the latest record, or nil.
func (ob *obsBundle) provDoc() any {
	if p := ob.prov.Load(); p != nil {
		return p
	}
	return nil
}

// fatalf reports a usage/environment failure and exits 3 through the
// bundle's shutdown path, so the watchdog stops and the final flight
// dump is written even on error exits.
func (ob *obsBundle) fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	ob.exit(3)
}

// exit runs the bundle's shutdown and leaves with code. A failed final
// flight dump turns a success exit into 3 (the dump was asked for and
// not delivered) but never masks a non-zero code.
func (ob *obsBundle) exit(code int) {
	if !ob.finish() && code == 0 {
		code = 3
	}
	osExit(code)
}

// newObsBundle builds (and starts) the observability side-cars the
// flags ask for: the debug HTTP server on pprofAddr, a watchdog at the
// given tick, and a flight recorder whenever any consumer needs one.
func newObsBundle(pprofAddr string, tick, stall time.Duration, dump string) *obsBundle {
	ob := &obsBundle{dump: dump}
	if pprofAddr == "" && tick <= 0 && dump == "" {
		return ob
	}
	ob.insp = bolt.NewInspector()
	ob.flight = obs.NewFlightRecorder(0)
	if pprofAddr != "" {
		// The run accumulates into a registry the HTTP server also
		// renders at /metrics, so Prometheus scrapes see the live run.
		ob.reg = obs.NewMetrics()
	}
	if tick > 0 {
		ob.wd = obs.NewWatchdog(obs.WatchdogConfig{
			Probe:      ob.insp.Probe(),
			Flight:     ob.flight,
			Tick:       tick,
			StallAfter: stall,
			OnStall: func(r obs.StallReport) {
				fmt.Fprintln(os.Stderr, r.String())
				if ob.dump != "" {
					if err := ob.writeDump(); err != nil {
						// A failed mid-run dump is reported but must not
						// kill the run being diagnosed.
						fmt.Fprintf(os.Stderr, "boltcheck: flight dump: %v\n", err)
					}
				}
			},
		})
		ob.wd.Start()
	}
	if pprofAddr != "" {
		ds := bolt.DebugState(ob.reg, ob.insp, ob.flight, ob.wd)
		ds.Prov = ob.provDoc
		addr, err := obs.StartDebugServer(pprofAddr, ds)
		if err != nil {
			ob.fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "debug: serving /debug/pprof, /metrics and /debug/bolt/{state,flight,health,prov} on http://%s\n", addr)
	}
	return ob
}

// writeDump writes the flight ring to the -flight-dump path, replacing
// any earlier dump (later is better: more of the interesting tail).
func (ob *obsBundle) writeDump() error {
	f, err := os.Create(ob.dump)
	if err != nil {
		return err
	}
	n, err := ob.flight.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, dropped := ob.flight.Counts()
	fmt.Fprintf(os.Stderr, "flight: wrote %s (%d events, %d dropped); report with boltprof -flight %s\n",
		ob.dump, n, dropped, ob.dump)
	return nil
}

// finish stops the watchdog and writes the final flight dump, reporting
// whether everything the flags asked for was delivered. Every exit path
// (success, verdict, usage failure) funnels through here via exit /
// fatalf: os.Exit skips deferred functions, so nothing may bypass it.
func (ob *obsBundle) finish() bool {
	ob.wd.Stop()
	if ob.dump != "" {
		if err := ob.writeDump(); err != nil {
			fmt.Fprintf(os.Stderr, "boltcheck: flight dump: %v\n", err)
			return false
		}
	}
	return true
}

// printStats renders the run's engine statistics. A cluster run reports
// its rounds, gossip, per-node peaks and faults where a single-machine
// run reports its peak ready count, iterations and solver accounting.
func printStats(res bolt.Result, cluster bool) {
	fmt.Printf("queries:      %d\n", res.TotalQueries)
	if cluster {
		fmt.Printf("rounds:       %d\n", res.Rounds)
	} else {
		fmt.Printf("peak ready:   %d\n", res.PeakReady)
		fmt.Printf("iterations:   %d\n", res.Iterations)
	}
	fmt.Printf("virtual time: %d ticks\n", res.VirtualTicks)
	fmt.Printf("wall time:    %v\n", res.WallTime)
	if cluster {
		fmt.Printf("gossip:       %d exchanges, %d deliveries dropped\n", res.SyncExchanges, res.DroppedDeliveries)
		fmt.Printf("peak live:    %v per node\n", res.PerNodePeakLive)
	}
	fmt.Printf("coalesced:    %d\n", res.CoalesceHits)
	if !cluster {
		printSolverStats(res.Solver)
	} else if len(res.KilledNodes) > 0 {
		fmt.Printf("faults:       killed nodes %v, %d queries re-routed, %d summaries recovered\n",
			res.KilledNodes, res.ReroutedQueries, res.RecoveredSummaries)
	}
}

// printSolverStats renders the solver's hot-path accounting: the
// learning-DPLL loop, theory-check volume and the entailment cache.
func printSolverStats(s smt.Stats) {
	fmt.Printf("sat calls:    %d\n", s.SatCalls)
	fmt.Printf("theory checks: %d\n", s.TheoryChecks)
	fmt.Printf("dpll conflicts: %d (learned %d, propagations %d)\n",
		s.DPLLConflicts, s.LearnedClauses, s.Propagations)
	fmt.Printf("entail cache: %d hits / %d misses\n", s.EntailCacheHits, s.EntailCacheMisses)
}

// printMetrics renders the flattened registry sorted by key, then the
// per-worker ledger with a utilization column.
func printMetrics(m map[string]int64, workers []obs.WorkerSnapshot) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("metrics:")
	for _, k := range keys {
		fmt.Printf("  %-28s %12d\n", k, m[k])
	}
	makespan := m["makespan_ticks"]
	for _, w := range workers {
		util := 0.0
		if makespan > 0 {
			util = float64(w.BusyTicks) / float64(makespan) * 100
		}
		fmt.Printf("  worker %-3d punches %-8d busy %-10d steals %-6d util %5.1f%%\n",
			w.Worker, w.Punches, w.BusyTicks, w.Steals, util)
	}
}

// reportStore confirms the -store warm-start/persist traffic. A store
// error (stale fingerprint, unreadable segment, failed flush) is a
// usage/environment problem, not a verdict: the caller routes the
// returned error through the bundle's exit-3 funnel.
func reportStore(dir string, warm, persisted int, err error) error {
	if dir == "" {
		return nil
	}
	if err != nil {
		return fmt.Errorf("boltcheck: summary store %s: %w", dir, err)
	}
	fmt.Fprintf(os.Stderr, "store: loaded %d summaries, persisted %d new (%s)\n", warm, persisted, dir)
	return nil
}

// reportIncr confirms the -incr edit-diff accounting: what changed,
// what was invalidated, what survived, whether the persisted verdict
// answered the question without a run of it, and, when an edit reached
// the root, whether re-proving the edited procedure stopped it there.
func reportIncr(on bool, edited []string, invalidated, surviving int, reused bool, cutoff string) {
	if !on {
		return
	}
	fmt.Fprintf(os.Stderr, "incr: %d edited %v, invalidated %d summaries, %d surviving", len(edited), edited, invalidated, surviving)
	if reused {
		fmt.Fprint(os.Stderr, ", verdict reused (no re-run)")
	}
	fmt.Fprintln(os.Stderr)
	if cutoff != "" {
		fmt.Fprintf(os.Stderr, "cutoff: %s\n", cutoff)
	}
}

// reportTrace confirms the -trace / -trace-jsonl outputs; a failed
// trace write is returned for the caller's exit-3 funnel.
func reportTrace(chromePath, jsonlPath string, spans int, events int64, err error) error {
	if chromePath == "" && jsonlPath == "" {
		return nil
	}
	if err != nil {
		return fmt.Errorf("boltcheck: writing trace: %w", err)
	}
	if chromePath != "" {
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d punch spans); open at https://ui.perfetto.dev\n", chromePath, spans)
	}
	if jsonlPath != "" {
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events); analyze with boltprof -input %s\n", jsonlPath, events, jsonlPath)
	}
	return nil
}

// analyses maps the -analysis values onto the PUNCH instantiations.
var analyses = map[string]bolt.Analysis{"maymust": bolt.MayMust, "may": bolt.May, "must": bolt.Must}

// flagRules are the flag combinations boltcheck refuses rather than drop a
// flag and answer a question that was not asked: flag needs other on the
// command line, or (refused) flag has no meaning beside other. The
// cluster engine answers the program's assertion question only, on its
// own clock and scheduler, and searches for no witness.
var flagRules = []struct {
	flag, other string
	refused     bool
}{
	{"proc", "dist", true},
	{"pre", "dist", true},
	{"post", "dist", true},
	{"ticks", "dist", true},
	{"async", "dist", true},
	{"witness", "dist", true},
	{"faults", "dist", false},
	{"pre", "proc", false},
	{"post", "proc", false},
	{"incr", "store", false},
	{"store-reset", "store", false},
	{"watchdog-stall", "watchdog", false},
}

// givenFlags returns the flags set on fs's command line to a value that
// asks for something: `-dist 0`, `-faults ""` or `-incr=false` do not.
func givenFlags(fs *flag.FlagSet) map[string]bool {
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		switch f.Value.String() {
		case "", "0", "0s", "false":
		default:
			given[f.Name] = true
		}
	})
	return given
}

// checkFlags exits 3 naming both flags of the first rule given breaks.
func checkFlags(given map[string]bool) {
	for _, r := range flagRules {
		switch {
		case r.refused && given[r.flag] && given[r.other]:
			fmt.Fprintf(os.Stderr, "boltcheck: -%s is not supported with -%s\n", r.flag, r.other)
		case !r.refused && given[r.flag] && !given[r.other]:
			fmt.Fprintf(os.Stderr, "boltcheck: -%s requires -%s\n", r.flag, r.other)
		default:
			continue
		}
		osExit(3)
	}
}

// checkDistributed verifies the whole-program assertion question on the
// simulated cluster with o's analysis, budget, store and observability
// settings, optionally under an injected fault plan.
func checkDistributed(prog *bolt.Program, o bolt.Options, nodes int, faults string) (bolt.Result, error) {
	return prog.CheckDistributed(context.Background(), bolt.DistOptions{
		Analysis:          o.Analysis,
		Nodes:             nodes,
		ThreadsPerNode:    o.Threads,
		Timeout:           o.Timeout,
		Faults:            faults,
		StorePath:         o.StorePath,
		StoreReset:        o.StoreReset,
		Incremental:       o.Incremental,
		TraceTo:           o.TraceTo,
		TraceJSONLTo:      o.TraceJSONLTo,
		CollectMetrics:    o.CollectMetrics,
		MetricsInto:       o.MetricsInto,
		PprofLabels:       o.PprofLabels,
		CollectProvenance: o.CollectProvenance,
		Inspect:           o.Inspect,
		FlightRecorder:    o.FlightRecorder,
	})
}

func verdictCode(v bolt.Verdict) int {
	switch v {
	case bolt.Safe:
		return 0
	case bolt.ErrorReachable:
		return 1
	default:
		return 2
	}
}
