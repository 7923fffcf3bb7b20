package bolt_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	bolt "repro"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
)

// The benchmarks below regenerate the paper's tables and figures (§5) at
// benchmark-friendly scale; `cmd/boltbench` runs the full versions whose
// outputs are recorded in EXPERIMENTS.md. Reported metrics: virtual ticks
// (the deterministic cost model) per table/figure unit of work.

func benchCheck(b *testing.B, driver, prop string, threads int) {
	b.Helper()
	check := drivers.NamedCheck(driver, prop, false)
	opts := harness.Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.RunCheck(check, threads, opts)
		if r.Verdict != core.Safe {
			b.Fatalf("verdict = %v", r.Verdict)
		}
		b.ReportMetric(float64(r.Ticks), "vticks")
	}
}

// BenchmarkTable1Speedups: one fast row of Table 1 (parport /
// MarkPowerDown) at the sequential and 8-thread points.
func BenchmarkTable1Speedups(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchCheck(b, "parport", "MarkPowerDown", 1) })
	b.Run("threads8", func(b *testing.B) { benchCheck(b, "parport", "MarkPowerDown", 8) })
}

// BenchmarkTable2Cumulative: a small suite slice, sequential vs 64
// threads (the full 45-driver sweep is cmd/boltbench -table 2).
func BenchmarkTable2Cumulative(b *testing.B) {
	checks := []drivers.Check{
		drivers.NamedCheck("parport", "PnpIrpCompletion", false),
		drivers.NamedCheck("drv10", "IoAllocateFree", false),
	}
	for i := 0; i < b.N; i++ {
		var seq, par int64
		for _, c := range checks {
			seq += harness.RunCheck(c, 1, harness.Options{}).Ticks
			par += harness.RunCheck(c, 64, harness.Options{}).Ticks
		}
		if par > 0 {
			b.ReportMetric(float64(seq)/float64(par), "speedup")
		}
	}
}

// BenchmarkTable3Timeouts: the sequential/parallel budget race on one of
// the Table 3 checks.
func BenchmarkTable3Timeouts(b *testing.B) {
	check := drivers.NamedCheck("selsusp", "IrqlExAllocatePool", false)
	for i := 0; i < b.N; i++ {
		seq := harness.RunCheck(check, 1, harness.Options{})
		par := harness.RunCheck(check, 64, harness.Options{})
		if par.Ticks > 0 {
			b.ReportMetric(float64(seq.Ticks)/float64(par.Ticks), "speedup")
		}
	}
}

// BenchmarkTable4QueryCounts: total query count under 2 vs 64 threads
// (the order-effect measurement).
func BenchmarkTable4QueryCounts(b *testing.B) {
	check := drivers.NamedCheck("parport", "PendedCompletedRequest", false)
	for i := 0; i < b.N; i++ {
		q2 := harness.RunCheck(check, 2, harness.Options{}).Queries
		q64 := harness.RunCheck(check, 64, harness.Options{}).Queries
		b.ReportMetric(float64(q2), "queries2t")
		b.ReportMetric(float64(q64), "queries64t")
	}
}

// BenchmarkFig3ReadyQueries: the sequential instrumentation run behind
// Fig. 3 (peak Ready count reported).
func BenchmarkFig3ReadyQueries(b *testing.B) {
	check := drivers.NamedCheck("parport", "PowerUpFail", false)
	for i := 0; i < b.N; i++ {
		r := harness.RunCheck(check, 1, harness.Options{})
		b.ReportMetric(float64(r.Peak), "peakready")
	}
}

// BenchmarkFig7Concurrency: the 8-thread instrumentation run behind
// Fig. 7 (mean batch size reported).
func BenchmarkFig7Concurrency(b *testing.B) {
	check := drivers.NamedCheck("parport", "PowerUpFail", false)
	for i := 0; i < b.N; i++ {
		r := harness.RunCheck(check, 8, harness.Options{})
		var sum, n float64
		for _, s := range r.Trace {
			sum += float64(s.Processed)
			n++
		}
		if n > 0 {
			b.ReportMetric(sum/n, "meanbatch")
		}
	}
}

// BenchmarkAblationStepBudget: PUNCH preemption budget sweep.
func BenchmarkAblationStepBudget(b *testing.B) {
	for _, budget := range []int64{300, 900, 2700} {
		b.Run(map[int64]string{300: "small", 900: "default", 2700: "large"}[budget], func(b *testing.B) {
			prog := drivers.Generate(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
			for i := 0; i < b.N; i++ {
				p := maymust.New()
				p.Budget = budget
				r := core.New(prog, core.Options{Punch: p, MaxThreads: 8, VirtualCores: 8, MaxIterations: 1 << 19}).
					Run(core.AssertionQuestion(prog))
				b.ReportMetric(float64(r.VirtualTicks), "vticks")
			}
		})
	}
}

// BenchmarkAsyncVsBarrier: the streaming work-stealing engine against the
// bulk-synchronous baseline at 8 threads. The first check is a regular
// corpus-scale run (async must not be slower in virtual ticks); the
// second is straggler-heavy — long PUNCH invocations of very uneven cost
// — where the barrier idles whole batches and streaming should win.
// Verdict confluence is asserted on every iteration.
func BenchmarkAsyncVsBarrier(b *testing.B) {
	checks := []struct{ name, driver, prop string }{
		{"parport", "parport", "MarkPowerDown"},
		{"straggler", "selsusp", "IrqlExAllocatePool"},
	}
	for _, c := range checks {
		prog := drivers.Generate(drivers.NamedCheck(c.driver, c.prop, false).Config)
		want := core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 8, VirtualCores: 8, MaxIterations: 1 << 19}).
			Run(core.AssertionQuestion(prog)).Verdict
		for _, mode := range []string{"barrier", "async"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := core.New(prog, core.Options{
						Punch: maymust.New(), MaxThreads: 8, VirtualCores: 8,
						MaxIterations: 1 << 19, Async: mode == "async", Metrics: obs.NewMetrics(),
					}).Run(core.AssertionQuestion(prog))
					if r.Verdict != want {
						b.Fatalf("verdict = %v, barrier baseline said %v", r.Verdict, want)
					}
					b.ReportMetric(float64(r.VirtualTicks), "vticks")
					if mode == "async" {
						b.ReportMetric(float64(r.Steals), "steals")
						b.ReportMetric(float64(r.Metrics.Counters["idle_parks"]), "idlewaits")
					}
				}
			})
		}
	}
}

// BenchmarkCoalesceDiamond: in-flight coalescing on a diamond-shaped
// program — four branch arms each calling the same three shared helpers,
// so concurrently-live arms keep asking questions that are already in
// flight. Duplicate spawns are answered from the in-flight twin (fewer
// PUNCH completions at an unchanged verdict).
func BenchmarkCoalesceDiamond(b *testing.B) {
	var src strings.Builder
	src.WriteString("globals g1, g2;\n")
	for s := 0; s < 3; s++ {
		fmt.Fprintf(&src, "proc shared%d { locals t; havoc t; assume(t >= 0 && t <= 2); g1 = g1 + t; }\n", s)
	}
	for a := 0; a < 4; a++ {
		fmt.Fprintf(&src, "proc arm%d { locals t; shared0(); shared1(); shared2(); g2 = g2 + %d; }\n", a, a)
	}
	src.WriteString(`proc main { locals x; g1 = 0; g2 = 0; havoc x;
  if (x > 3) { arm0(); } else { if (x > 2) { arm1(); } else { if (x > 1) { arm2(); } else { arm3(); } } }
  assert(g1 >= 0); }
`)
	prog := parser.MustParse(src.String())
	for i := 0; i < b.N; i++ {
		r := core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 8, VirtualCores: 8, MaxIterations: 1 << 18, Metrics: obs.NewMetrics()}).
			Run(core.AssertionQuestion(prog))
		if r.Verdict != core.Safe {
			b.Fatalf("verdict = %v, want %v", r.Verdict, core.Safe)
		}
		b.ReportMetric(float64(r.Metrics.Counters["queries_done"]), "punchdone")
		b.ReportMetric(float64(r.VirtualTicks), "vticks")
		b.ReportMetric(float64(r.CoalesceHits), "coalesced")
	}
}

// BenchmarkEntailmentCache: the striped entailment memo on the solver's
// Implies path, uncached vs cached, over a pool of conjunctive formulas
// large enough to exercise multiple shards but small enough to re-ask.
func BenchmarkEntailmentCache(b *testing.B) {
	x, y := logic.LinVar(lang.Var("x")), logic.LinVar(lang.Var("y"))
	var pool []logic.Formula
	for i := int64(0); i < 16; i++ {
		pool = append(pool,
			logic.Conj(logic.LEq(x, logic.LinConst(i)), logic.LEq(logic.LinConst(-i), y)))
	}
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			s := smt.New()
			if mode == "on" {
				s.EnableEntailmentCache()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Implies(pool[i%len(pool)], pool[(i+7)%len(pool)])
			}
			if mode == "on" {
				st := s.StatsSnapshot()
				if total := st.EntailCacheHits + st.EntailCacheMisses; total > 0 {
					b.ReportMetric(float64(st.EntailCacheHits)/float64(total), "hitrate")
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability layer's hot-path cost
// on the streaming engine at 8 threads: disabled (the nil-tracer /
// nil-registry branch the zero-allocation contract is about), metrics
// only, and metrics plus the full recording a Chrome trace is converted
// from. "disabled" is the before/after comparison against
// BenchmarkAsyncVsBarrier's async runs; the acceptance bar is < 2%
// makespan regression.
func BenchmarkObsOverhead(b *testing.B) {
	prog := drivers.Generate(drivers.NamedCheck("parport", "MarkPowerDown", false).Config)
	modes := []struct {
		name    string
		metrics bool
		trace   bool
		flight  bool
		probe   bool
		prov    bool
	}{
		{name: "disabled"},
		{name: "metrics", metrics: true},
		{name: "metrics+trace", metrics: true, trace: true},
		{name: "flight", flight: true},
		{name: "flight+probe", flight: true, probe: true},
		{name: "prov", prov: true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					Punch: maymust.New(), MaxThreads: 8, VirtualCores: 8,
					MaxIterations: 1 << 19, Async: true,
				}
				if mode.metrics {
					opts.Metrics = obs.NewMetrics()
				}
				if mode.trace {
					opts.Tracer = &obs.Recording{}
				}
				if mode.flight {
					opts.Tracer = obs.NewFlightRecorder(0)
				}
				if mode.probe {
					opts.Probe = &obs.Probe{}
				}
				if mode.prov {
					opts.CollectProvenance = true
				}
				r := core.New(prog, opts).Run(core.AssertionQuestion(prog))
				if r.Verdict != core.Safe {
					b.Fatalf("verdict = %v", r.Verdict)
				}
				b.ReportMetric(float64(r.VirtualTicks), "vticks")
			}
		})
	}
}

// BenchmarkSumDBAnswer: the latency of one answered question against a
// prebuilt summary database of 8 procedures, 64 summaries each; every
// question is built before the timer starts. "repeat" re-asks one
// question: one procedure's memo, one memo entry, hot in cache. "varied"
// cycles through 64 questions over all 8 procedures: after the first
// pass (one scan each) every answer is a memo hit too, spread over 8
// procedure locks and 64 entries. "parallel" asks the same 64 from
// GOMAXPROCS goroutines at once, each starting at its own offset, so the
// map lock and the procedure locks are taken concurrently.
func BenchmarkSumDBAnswer(b *testing.B) {
	g := func(x int64) logic.Formula { return logic.Eq(logic.LinVar(lang.Var("g")), logic.LinConst(x)) }
	build := func() *summary.DB {
		db := summary.New(smt.New())
		for p := 0; p < 8; p++ {
			proc := fmt.Sprintf("proc%d", p)
			for i := int64(0); i < 64; i++ {
				db.Add(summary.Summary{Kind: summary.Must, Proc: proc, Pre: g(i), Post: g(i + 1)})
			}
		}
		return db
	}
	var qs []summary.Question
	for i := 0; i < 64; i++ {
		qs = append(qs, summary.Question{Proc: fmt.Sprintf("proc%d", i%8), Pre: g(int64(i)), Post: g(int64(i) + 1)})
	}
	b.Run("repeat", func(b *testing.B) {
		db := build()
		q := summary.Question{Proc: "proc3", Pre: g(63), Post: g(64)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := db.AnswerYes(q); !ok {
				b.Fatal("no answer")
			}
		}
		b.ReportMetric(float64(summary.StatsOf(db).MemoHits), "memohits")
	})
	b.Run("varied", func(b *testing.B) {
		db := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := db.AnswerYes(qs[i%len(qs)]); !ok {
				b.Fatal("no answer")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		db := build()
		var start atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := int(start.Add(5)); pb.Next(); i++ {
				if _, ok := db.AnswerYes(qs[i%len(qs)]); !ok {
					b.Error("no answer")
					return
				}
			}
		})
	})
}

// BenchmarkSolver: the QF_LIA substrate on a representative formula mix.
func BenchmarkSolver(b *testing.B) {
	prog := drivers.Generate(drivers.NamedCheck("parport", "PnpIrpCompletion", false).Config)
	for i := 0; i < b.N; i++ {
		r := core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 1, MaxIterations: 1 << 19}).
			Run(core.AssertionQuestion(prog))
		b.ReportMetric(float64(r.Solver.SatCalls), "satcalls")
	}
}

// BenchmarkWarmVsCold: the persistent summary store's payoff. "cold"
// verifies into an empty disk store (paying encode+persist); "warm"
// re-verifies from the store the setup run populated. Warm runs start
// from yesterday's proven facts, so their virtual makespan — the
// reported vticks — must come in measurably under cold.
func BenchmarkWarmVsCold(b *testing.B) {
	check := drivers.NamedCheck("parport", "MarkPowerDown", false)
	prog := drivers.Generate(check.Config)
	fp := store.NewFingerprint("bench-warm", check.ID(), prog.String())
	runWith := func(b *testing.B, dir string) core.Result {
		st, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			b.Fatal(err)
		}
		r := core.New(prog, core.Options{
			Punch: maymust.New(), MaxThreads: 8, VirtualCores: 8,
			MaxIterations: 1 << 19, Store: st,
		}).Run(core.AssertionQuestion(prog))
		if r.StoreErr != nil {
			b.Fatal(r.StoreErr)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			r := runWith(b, dir)
			if r.PersistedSummaries == 0 {
				b.Fatal("cold run persisted nothing")
			}
			b.ReportMetric(float64(r.VirtualTicks), "vticks")
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		runWith(b, dir) // populate once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := runWith(b, dir)
			if r.WarmSummaries == 0 {
				b.Fatal("warm run loaded nothing")
			}
			b.ReportMetric(float64(r.VirtualTicks), "vticks")
		}
	})
}

// BenchmarkDistributed: the §7 "Distributed BOLT" simulation — cluster
// sizes 1, 2 and 4 on one check, reporting the busiest shard's peak live
// queries (the per-machine memory story) — and a 2-node cluster, one
// thread a node, on the fan-out-32 toastmon-shaped driver (wideDriver),
// 2 539 rounds of gossip: what an exchange costs as a run grows long.
//
// What each change to the exchange measured on fanout32_nodes2, per
// iteration (two interleaved runs of 3 iterations each side, shared
// 2-core box; the same 1 646 257 vticks on both sides):
//
//	per-procedure gossip cursors, a
//	delivery encoded only for a tracer  275.4 → 47.9 MB  742.5 k → 680.5 k allocs
//
// Its time, 1.25–1.43 → 0.91–0.96 s, is not claimed: two busy goroutines
// share about one core on that box.
func BenchmarkDistributed(b *testing.B) {
	parport := drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	wide := parser.MustParse(wideDriver(32))
	for _, c := range []struct {
		name           string
		prog           *cfg.Program
		nodes, threads int
	}{
		{"nodes1", parport, 1, 4},
		{"nodes2", parport, 2, 4},
		{"nodes4", parport, 4, 4},
		{"fanout32_nodes2", wide, 2, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := core.NewDistributed(c.prog, core.DistOptions{
					Punch:          maymust.New(),
					Nodes:          c.nodes,
					ThreadsPerNode: c.threads,
					MaxRounds:      1 << 18,
				}).Run(core.AssertionQuestion(c.prog))
				if r.Verdict != core.Safe {
					b.Fatalf("verdict = %v", r.Verdict)
				}
				peak := 0
				for _, p := range r.PerNodePeakLive {
					if p > peak {
						peak = p
					}
				}
				b.ReportMetric(float64(peak), "shardpeak")
				b.ReportMetric(float64(r.VirtualTicks), "vticks")
			}
		})
	}
}

// BenchmarkColdTable1Seq is the cold check of the benchmark's table1_seq
// workload in-process: the six Table-1 proofs and three buggy variants,
// may-must on one thread, each parsed and checked through bolt.Check
// with a cold intern table and fresh solver memos. Run it with
// -cpuprofile or -memprofile to see where a cold check's time goes.
//
// What each part of the memo and kernel change, and each later change to
// the cold path, measured here, alone, as process CPU per iteration
// (median of 6 interleaved pairs, shared 2-core Xeon box) and allocation
// per iteration:
//
//	lock-free memos with compact slots  1.490 → 1.363 s  82.9 → 76.3 MB
//	no store copy before a non-empty image,
//	must elements deduplicated by scan  1.365 → 1.315 s  76.3 → 68.0 MB
//	one-step check in the cube kernel   1.316 → 1.204 s  68.1 → 62.4 MB
//	partition cubes in the cube kernel  1.370 → 1.470 s  62.4 → 59.8 MB (not kept)
//	regions in chunks, lists threaded
//	through the edge records, a store
//	copied once a call crossing lands   1.024 → 0.937 s  62.0 → 53.2 MB
//	must membership in the cube kernel,
//	reused blocks of list heads, no
//	throwaway formulas                  not claimed      53.1 → 46.7 MB (3 iterations each)
//
// The last row's time is not claimed: its paired bench/run.sh passes read
// table1_seq's pass_cpu_s as a draw.
func BenchmarkColdTable1Seq(b *testing.B) {
	checks := append(harness.Table1Checks(),
		drivers.NamedCheck("toastmon", "PnpIrpCompletion", true),
		drivers.NamedCheck("parport", "MarkPowerDown", true),
		drivers.NamedCheck("parport", "PowerUpFail", true))
	srcs := make([]string, len(checks))
	for i, c := range checks {
		srcs[i] = drivers.Source(c.Config)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			prog, err := bolt.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			want := bolt.Safe
			if checks[j].Config.Buggy {
				want = bolt.ErrorReachable
			}
			opts := bolt.Options{Analysis: bolt.MayMust, Threads: 1, FindWitness: checks[j].Config.Buggy}
			if r := prog.Check(opts); r.Verdict != want {
				b.Fatalf("%s: verdict %v, want %v", checks[j].ID(), r.Verdict, want)
			}
		}
	}
}
