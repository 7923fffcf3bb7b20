package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/prov"
	"repro/internal/punch/maymust"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// Sizes of the direct timed calls. They bound the traced pass's run
// time; the per-call figures do not depend on them.
const (
	replaySummaries = 150
	replayPairs     = 300
	replayRounds    = 5
	pairedRounds    = 5
)

// layerMetrics derives the per-layer metrics the traced child can know
// on its own. What needs the untraced pass beside it (segment wall
// times, tracing overhead, work inflation) is added by the parent.
func layerMetrics(w *workload, t *tracer, results []opResult, passDir string) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	var parseMs []float64
	var parseNs, srcBytes, progs int64
	var all stepStats
	var solver smt.Stats
	var internHit, internMis int64
	var work, spanTicks, events int64
	var seqCoreNs, seqStepNs, coreThreadNs, stepNs int64
	var witnessNs, replayNs, witnesses int64
	var invalidated, surviving, edits, reused int64
	var harvest *engineRun
	for i, er := range t.runs {
		parseMs = append(parseMs, float64(er.parseNs)/1e6)
		parseNs += er.parseNs
		srcBytes += int64(er.srcBytes)
		if er.prog != nil {
			progs++
			m["cfg.procs"] += float64(len(er.prog.Procs))
			for _, p := range er.prog.Procs {
				m["cfg.nodes"] += float64(p.NNodes)
				m["cfg.edges"] += float64(len(p.Edges))
			}
		}
		st := er.steps
		m[punchLayer(er.op.Analysis)+".step_s"] += float64(st.stepNs) / 1e9
		all.merge(st)
		addSolverStats(&solver, er.solver)
		internHit += er.internHit
		internMis += er.internMis
		events += int64(len(er.events))
		if er.report != nil {
			work += er.report.WorkTicks
			spanTicks += er.report.SpanTicks
		}
		if er.op.Threads == 1 {
			seqCoreNs += er.coreNs
			seqStepNs += st.stepNs
		}
		coreThreadNs += er.coreNs * int64(er.op.Threads)
		stepNs += st.stepNs
		m["core.coalesce_hits"] += float64(er.coalesceHits)
		m["core.steals"] += float64(er.steals)
		m["core.iterations"] += float64(er.iterations)
		m["core.dist_rounds"] += float64(er.rounds)
		m["query.peak_live"] = max(m["query.peak_live"], float64(er.peakLive))
		m["query.peak_ready"] = max(m["query.peak_ready"], float64(er.peakReady))
		m["summary.count"] += float64(len(er.summaries))
		m["store.op_overhead_s"] += float64(er.storeNs) / 1e9
		if er.witnessNs > 0 {
			witnesses++
			witnessNs += er.witnessNs
			replayNs += er.replayNs
		}
		if harvest == nil || len(er.summaries) > len(harvest.summaries) {
			harvest = er
		}
		m["query.spawned"] += float64(results[i].Queries)
		if er.op.Segment == "edit" {
			edits++
			invalidated += int64(results[i].Invalidated)
			surviving += int64(results[i].Surviving)
			m["incr.recheck_ticks"] += float64(er.steps.cost)
			if results[i].Reused {
				reused++
			}
		}
	}

	m["parser.parse_ms"] = median(parseMs)
	m["parser.mb_per_s"] = ratio(float64(srcBytes)/1e6, float64(parseNs)/1e9)
	for _, k := range []string{"cfg.procs", "cfg.nodes", "cfg.edges"} {
		m[k] = ratio(m[k], float64(progs))
	}
	m["punch.steps"] = float64(all.steps)
	m["punch.self_s"] = float64(all.stepNs-all.db.ns()) / 1e9
	m["punch.done_share"] = ratio(float64(all.done), float64(all.steps))
	m["punch.children_per_step"] = ratio(float64(all.children), float64(all.steps))
	m["smt.sat_calls"] = float64(solver.SatCalls)
	m["smt.theory_checks"] = float64(solver.TheoryChecks)
	m["smt.ticks"] = float64(solver.Ticks)
	m["smt.entail_hit_share"] = ratio(float64(solver.EntailCacheHits), float64(solver.EntailCacheHits+solver.EntailCacheMisses))
	m["smt.dpll_conflicts"] = float64(solver.DPLLConflicts)
	m["logic.hashcons_hit_share"] = ratio(float64(internHit), float64(internHit+internMis))
	m["logic.intern_misses"] = float64(internMis)
	m["summary.answer_s"] = float64(all.db.answerNs) / 1e9
	m["summary.answer_calls"] = float64(all.db.answerCalls)
	m["summary.answer_hit_share"] = ratio(float64(all.db.answerHits), float64(all.db.answerCalls))
	m["summary.add_s"] = float64(all.db.addNs) / 1e9
	m["summary.add_calls"] = float64(all.db.addCalls)
	m["summary.forproc_calls"] = float64(all.db.forProcCalls)
	m["core.engine_self_s"] = float64(seqCoreNs-seqStepNs) / 1e9
	m["core.worker_busy_share"] = ratio(float64(stepNs), float64(coreThreadNs))
	m["core.work_ticks"] = float64(all.cost)
	m["core.span_ticks"] = float64(spanTicks)
	m["core.parallelism"] = ratio(float64(work), float64(spanTicks))
	m["incr.invalidated_share"] = ratio(float64(invalidated), float64(invalidated+surviving))
	m["incr.surviving_share"] = ratio(float64(surviving), float64(invalidated+surviving))
	m["incr.reused_verdict_share"] = ratio(float64(reused), float64(edits))
	m["witness.find_ms"] = ratio(float64(witnessNs)/1e6, float64(witnesses))
	m["interp.replay_ms"] = ratio(float64(replayNs)/1e6, float64(witnesses))
	m["obs.events"] = float64(events)
	m["obs.spans"] = float64(len(t.log.spans))

	if harvest != nil && len(harvest.summaries) > 0 {
		replayMetrics(m, harvest.summaries)
	}
	if w.Probe < 0 {
		return m
	}
	// The paired measurements run after every traced operation, so they
	// disturb none of them; both sides of a pair see the same warm
	// hash-cons table.
	prog, err := parser.Parse(w.Sources[w.Probe])
	if err != nil {
		return m
	}
	sums, p := provPair(m, prog)
	m["prov.cone_procs"] = float64(len(p.Procedures))
	m["prov.summary_reads"] = float64(p.SummaryReads)
	if !w.usesStore() {
		return m
	}
	if err := storeMetrics(m, prog, sums, filepath.Join(passDir, "micro")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: store measurements:", err)
	}
	wireMetrics(m, sums)
	incrMetrics(m, prog, w.Sources[w.Probe])
	return m
}

func orTrue(f logic.Formula) logic.Formula {
	if f == nil {
		return logic.True
	}
	return f
}

// minOver runs f rounds times and returns its smallest result.
func minOver(rounds int, f func() time.Duration) time.Duration {
	best := f()
	for i := 1; i < rounds; i++ {
		best = min(best, f())
	}
	return best
}

func perCallUs(d time.Duration, calls int) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(calls))
}

// replayMetrics times the solver and the formula layer directly on the
// formulas of harvested summaries. Every round starts from a fresh solver
// (its memo tables would otherwise answer from the previous round) and
// the five kinds of call are interleaved within a round.
func replayMetrics(m map[string]float64, sums []summary.Summary) {
	if len(sums) > replaySummaries {
		sums = sums[:replaySummaries]
	}
	var pairs [][2]logic.Formula
	for i := range sums {
		for j := i + 1; j < len(sums) && len(pairs) < replayPairs; j++ {
			if sums[i].Proc == sums[j].Proc {
				pairs = append(pairs, [2]logic.Formula{orTrue(sums[i].Pre), orTrue(sums[j].Pre)})
			}
		}
	}
	both := make([]logic.Formula, len(sums))
	for i, s := range sums {
		both[i] = logic.Conj(orTrue(s.Pre), orTrue(s.Post))
	}
	best := [5]time.Duration{}
	for r := 0; r < replayRounds; r++ {
		solver := smt.New().EnableEntailmentCache()
		var d [5]time.Duration
		t0 := time.Now()
		for _, f := range both {
			solver.Sat(f)
		}
		d[0] = time.Since(t0)
		t0 = time.Now()
		for _, p := range pairs {
			solver.Implies(p[0], p[1])
		}
		d[1] = time.Since(t0)
		t0 = time.Now()
		for _, f := range both {
			solver.Simplify(f)
		}
		d[2] = time.Since(t0)
		t0 = time.Now()
		for _, f := range both {
			if vs := logic.FreeVars(f); len(vs) > 0 {
				logic.Exists(f, vs[:1], logic.Over)
			}
		}
		d[3] = time.Since(t0)
		t0 = time.Now()
		for _, s := range sums {
			logic.Conj(orTrue(s.Pre), orTrue(s.Post))
		}
		d[4] = time.Since(t0)
		for k := range d {
			if r == 0 || d[k] < best[k] {
				best[k] = d[k]
			}
		}
	}
	m["smt.replay_sat_us"] = perCallUs(best[0], len(both))
	m["smt.replay_implies_us"] = perCallUs(best[1], len(pairs))
	m["smt.replay_simplify_us"] = perCallUs(best[2], len(both))
	m["logic.replay_exists_us"] = perCallUs(best[3], len(both))
	m["logic.replay_conj_us"] = perCallUs(best[4], len(sums))
}

// checkOnce runs one undecorated one-thread may-must check of prog.
func checkOnce(prog *cfg.Program, provenance bool, st store.Store) core.Result {
	return core.New(prog, core.Options{
		Punch: maymust.New(), MaxThreads: 1, CollectProvenance: provenance,
		Store: st, Incremental: st != nil,
	}).RunContext(context.Background(), core.AssertionQuestion(prog))
}

// pairedPct times a and b alternately after one warm-up run of a and
// returns how much slower b's best round is than a's, in percent.
func pairedPct(a, b func() time.Duration) float64 {
	a()
	bestA, bestB := time.Duration(0), time.Duration(0)
	for r := 0; r < pairedRounds; r++ {
		da, db := time.Duration(0), time.Duration(0)
		if r%2 == 0 {
			da, db = a(), b()
		} else {
			db, da = b(), a()
		}
		if r == 0 || da < bestA {
			bestA = da
		}
		if r == 0 || db < bestB {
			bestB = db
		}
	}
	return 100 * ratio(float64(bestB-bestA), float64(bestA))
}

// provPair measures what CollectProvenance costs on the probe program
// and returns the program's summaries and provenance record.
func provPair(m map[string]float64, prog *cfg.Program) ([]summary.Summary, *prov.Provenance) {
	var last core.Result
	timed := func(provenance bool) func() time.Duration {
		return func() time.Duration {
			t0 := time.Now()
			r := checkOnce(prog, provenance, nil)
			d := time.Since(t0)
			if provenance {
				last = r
			}
			return d
		}
	}
	m["prov.overhead_pct"] = pairedPct(timed(false), timed(true))
	return last.Summaries, last.Provenance
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// storeMetrics calls the disk store directly with the probe program's
// summaries: write, reopen, load, delete one procedure, reopen again
// (which compacts), best of five rounds; then the paired persist tax.
func storeMetrics(m map[string]float64, prog *cfg.Program, sums []summary.Summary, dir string) error {
	if len(sums) == 0 {
		return fmt.Errorf("no summaries to store")
	}
	fp := incrFingerprint("may-must")
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	timed := func(f func() error) time.Duration {
		t0 := time.Now()
		note(f())
		return time.Since(t0)
	}
	var put, flush, open, load, del, reopen time.Duration
	for r := 0; r < pairedRounds; r++ {
		round := filepath.Join(dir, fmt.Sprintf("store-%d", r))
		d, err := store.OpenDisk(round, fp, false)
		if err != nil {
			return err
		}
		dPut := timed(func() error {
			for _, s := range sums {
				if _, err := d.Put(s); err != nil {
					return err
				}
			}
			return nil
		})
		dFlush := timed(d.Flush)
		note(d.Close())
		m["store.bytes_per_summary"] = ratio(float64(dirBytes(round)), float64(len(sums)))
		dOpen := timed(func() (err error) { d, err = store.OpenDisk(round, fp, false); return err })
		if firstErr != nil {
			return firstErr
		}
		dLoad := timed(func() error { _, err := d.Load(); return err })
		dDel := timed(func() error { _, err := d.DeleteProcs([]string{sums[0].Proc}); return err })
		note(d.Close())
		dReopen := timed(func() (err error) { d, err = store.OpenDisk(round, fp, false); return err })
		if firstErr != nil {
			return firstErr
		}
		note(d.Close())
		if r == 0 {
			put, flush, open, load, del, reopen = dPut, dFlush, dOpen, dLoad, dDel, dReopen
		} else {
			put, flush, open, load = min(put, dPut), min(flush, dFlush), min(open, dOpen), min(load, dLoad)
			del, reopen = min(del, dDel), min(reopen, dReopen)
		}
	}
	m["store.put_us_per_summary"] = perCallUs(put, len(sums))
	m["store.flush_ms"] = ms(flush)
	m["store.open_ms"] = ms(open)
	m["store.load_ms"] = ms(load)
	m["store.delete_ms"] = ms(del)
	m["store.reopen_after_delete_ms"] = ms(reopen)

	n := 0
	plain := func() time.Duration {
		t0 := time.Now()
		checkOnce(prog, false, nil)
		return time.Since(t0)
	}
	persist := func() time.Duration {
		n++
		t0 := time.Now()
		d, err := store.OpenDisk(filepath.Join(dir, fmt.Sprintf("tax-%d", n)), fp, false)
		if err != nil {
			note(err)
			return time.Since(t0)
		}
		note(checkOnce(prog, false, d).StoreErr)
		note(d.Close())
		return time.Since(t0)
	}
	m["store.persist_tax_pct"] = pairedPct(plain, persist)
	return firstErr
}

// wireMetrics times the wire codec directly, per summary and per
// formula, best of five rounds.
func wireMetrics(m map[string]float64, sums []summary.Summary) {
	if len(sums) == 0 {
		return
	}
	var bytes int
	bufs := make([][]byte, len(sums))
	enc := minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		for i, s := range sums {
			bufs[i], _ = wire.AppendSummary(nil, s) // summaries of a finished run encode; the decode below fails loudly if not
		}
		return time.Since(t0)
	})
	for _, b := range bufs {
		bytes += len(b)
	}
	dec := minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		for _, b := range bufs {
			if _, _, err := wire.DecodeSummary(b); err != nil {
				panic(fmt.Sprint("bench: wire round trip: ", err))
			}
		}
		return time.Since(t0)
	})
	formulas := minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		for _, s := range sums {
			for _, f := range []logic.Formula{orTrue(s.Pre), orTrue(s.Post)} {
				if _, _, err := logic.DecodeWire(logic.AppendWire(nil, f)); err != nil {
					panic(fmt.Sprint("bench: formula round trip: ", err))
				}
			}
		}
		return time.Since(t0)
	})
	n := float64(len(sums))
	m["wire.encode_ns_per_summary"] = float64(enc.Nanoseconds()) / n
	m["wire.decode_ns_per_summary"] = float64(dec.Nanoseconds()) / n
	m["wire.bytes_per_summary"] = float64(bytes) / n
	m["logic.wire_ns_per_formula"] = float64(formulas.Nanoseconds()) / (2 * n)
}

// incrMetrics times the edit-detection steps directly: fingerprint every
// procedure, diff against an edited program, plan the invalidation.
func incrMetrics(m map[string]float64, prog *cfg.Program, src string) {
	names := prog.ProcNames()
	edited, err := incr.MutateSource(src, names[len(names)-1], 1)
	if err != nil {
		return
	}
	prog2, err := parser.Parse(edited)
	if err != nil {
		return
	}
	var before incr.Manifest
	m["incr.snapshot_ms"] = ms(minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		before = incr.Snapshot(prog)
		return time.Since(t0)
	}))
	after := incr.Snapshot(prog2)
	var changed []string
	m["incr.diff_us"] = perCallUs(minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		changed = incr.Diff(before, after)
		return time.Since(t0)
	}), 1)
	graph := prog2.CallGraph()
	m["incr.plan_us"] = perCallUs(minOver(replayRounds, func() time.Duration {
		t0 := time.Now()
		incr.PlanInvalidation(changed, graph, prog2.Main)
		return time.Since(t0)
	}), 1)
}
