package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Doc    string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the checker sees. Every workload
// reports every one of them, so each is defined over "operations" (one
// source text taken to one verdict through the public API) and "passes"
// (all operations of the workload, once, in a fresh process).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, "median over repeated set-ups: generate the inputs from the seed and write them out"},
	{"pass_wall_s", "s", lower, 0.20, "median over passes of the summed wall time from source text to verdict, parse included"},
	{"pass_cpu_s", "s", lower, 0.20, "median over passes of the child's user+system CPU time"},
	{"peak_rss_mb", "MB", lower, 0.25, "median over passes of the child's peak resident set"},
	{"alloc_mb", "MB", lower, 0.10, "median over passes of the bytes allocated (runtime.MemStats.TotalAlloc)"},
	{"op_wall_ms_p50", "ms", lower, 0.25, "median latency of one operation, pooled over passes"},
	{"op_wall_ms_p90", "ms", lower, 0.25, "90th percentile of the same"},
	{"decided_share", "ratio", higher, 0.05, "definite verdicts over operations attempted"},
}

// perLayer are the single-layer metrics of the traced pass, named after
// the internal/ package they measure. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "parser.parse_ms", Unit: "ms", Better: lower, Doc: "median parser.Parse time of one operation"},
	{Name: "parser.mb_per_s", Unit: "MB/s", Better: higher, Doc: "source bytes parsed per second of parse time"},
	{Name: "cfg.procs", Unit: "count", Better: lower, Doc: "mean procedures per parsed program"},
	{Name: "cfg.nodes", Unit: "count", Better: lower, Doc: "mean CFG nodes per parsed program"},
	{Name: "cfg.edges", Unit: "count", Better: lower, Doc: "mean CFG edges per parsed program"},

	{Name: "punch.maymust.step_s", Unit: "s", Better: lower, Doc: "wall time inside may-must PUNCH steps"},
	{Name: "punch.may.step_s", Unit: "s", Better: lower, Doc: "wall time inside may PUNCH steps"},
	{Name: "punch.must.step_s", Unit: "s", Better: lower, Doc: "wall time inside must PUNCH steps"},
	{Name: "punch.steps", Unit: "count", Better: lower, Doc: "PUNCH invocations"},
	{Name: "punch.self_s", Unit: "s", Better: lower, Doc: "step time minus time inside the summary database"},
	{Name: "punch.done_share", Unit: "ratio", Better: higher, Doc: "steps that finished their query, over steps"},
	{Name: "punch.children_per_step", Unit: "ratio", Better: lower, Doc: "sub-queries spawned per step"},

	{Name: "smt.sat_calls", Unit: "count", Better: lower, Doc: "solver Sat calls"},
	{Name: "smt.theory_checks", Unit: "count", Better: lower, Doc: "full theory checks"},
	{Name: "smt.ticks", Unit: "ticks", Better: lower, Doc: "solver work units"},
	{Name: "smt.entail_hit_share", Unit: "ratio", Better: higher, Doc: "entailment-cache hits over lookups"},
	{Name: "smt.dpll_conflicts", Unit: "count", Better: lower, Doc: "propositional conflicts"},
	{Name: "logic.hashcons_hit_share", Unit: "ratio", Better: higher, Doc: "intern-table hits over requests"},
	{Name: "logic.intern_misses", Unit: "count", Better: lower, Doc: "fresh intern-table insertions"},

	{Name: "smt.replay_sat_us", Unit: "us", Better: lower, Doc: "Sat(pre∧post) per harvested summary, fresh solver, min of 5 rounds"},
	{Name: "smt.replay_implies_us", Unit: "us", Better: lower, Doc: "Implies between preconditions of one procedure, per pair"},
	{Name: "smt.replay_simplify_us", Unit: "us", Better: lower, Doc: "Simplify(pre∧post) per summary"},
	{Name: "logic.replay_exists_us", Unit: "us", Better: lower, Doc: "Exists over one free variable of pre∧post, per summary"},
	{Name: "logic.replay_conj_us", Unit: "us", Better: lower, Doc: "Conj(pre, post) per summary"},

	{Name: "summary.answer_s", Unit: "s", Better: lower, Doc: "time inside Answer/AnswerYes/AnswerNo"},
	{Name: "summary.answer_calls", Unit: "count", Better: lower, Doc: "summary-database questions asked"},
	{Name: "summary.answer_hit_share", Unit: "ratio", Better: higher, Doc: "questions a stored summary answered"},
	{Name: "summary.add_s", Unit: "s", Better: lower, Doc: "time inside Add"},
	{Name: "summary.add_calls", Unit: "count", Better: lower, Doc: "summaries offered to the database"},
	{Name: "summary.forproc_calls", Unit: "count", Better: lower, Doc: "per-procedure views taken"},
	{Name: "summary.count", Unit: "count", Better: lower, Doc: "summaries in the database when a run ends, summed over runs"},

	{Name: "core.engine_self_s", Unit: "s", Better: lower, Doc: "one-thread runs: engine wall time minus time inside PUNCH steps"},
	{Name: "core.worker_busy_share", Unit: "ratio", Better: higher, Doc: "step wall time over run wall time x threads"},
	{Name: "core.work_ticks", Unit: "ticks", Better: lower, Doc: "total PUNCH cost, never a makespan"},
	{Name: "core.span_ticks", Unit: "ticks", Better: lower, Doc: "cost-weighted critical path of the query DAG"},
	{Name: "core.parallelism", Unit: "ratio", Better: higher, Doc: "work over span"},
	{Name: "core.work_inflation", Unit: "ratio", Better: lower, Doc: "work of parallel runs over one-thread work on the same inputs"},
	{Name: "core.coalesce_hits", Unit: "count", Better: higher, Doc: "spawns answered by an in-flight twin"},
	{Name: "core.steals", Unit: "count", Better: lower, Doc: "queries stolen between streaming workers"},
	{Name: "core.iterations", Unit: "count", Better: lower, Doc: "MAP/REDUCE iterations or completion events"},
	{Name: "core.dist_rounds", Unit: "count", Better: lower, Doc: "rounds of the simulated cluster"},
	{Name: "core.stream_wall_s", Unit: "s", Better: lower, Doc: "untraced pass: wall time of the streaming-engine operations"},
	{Name: "core.barrier_wall_s", Unit: "s", Better: lower, Doc: "untraced pass: wall time of the barrier-engine operations at more than one thread"},
	{Name: "core.dist_wall_s", Unit: "s", Better: lower, Doc: "untraced pass: wall time of the CheckDistributed operations"},
	{Name: "core.par_speedup_wall", Unit: "ratio", Better: higher, Doc: "one-thread wall time over streaming wall time, same inputs, both untraced"},
	{Name: "query.spawned", Unit: "count", Better: lower, Doc: "queries ever created"},
	{Name: "query.peak_live", Unit: "count", Better: lower, Doc: "largest live query forest of any run"},
	{Name: "query.peak_ready", Unit: "count", Better: lower, Doc: "largest ready set of any run"},

	{Name: "store.open_ms", Unit: "ms", Better: lower, Doc: "OpenDisk on a populated store"},
	{Name: "store.load_ms", Unit: "ms", Better: lower, Doc: "Load of every stored summary"},
	{Name: "store.put_us_per_summary", Unit: "us", Better: lower, Doc: "Put, per summary"},
	{Name: "store.flush_ms", Unit: "ms", Better: lower, Doc: "Flush after the puts"},
	{Name: "store.delete_ms", Unit: "ms", Better: lower, Doc: "DeleteProcs of one procedure"},
	{Name: "store.reopen_after_delete_ms", Unit: "ms", Better: lower, Doc: "OpenDisk that has to compact tombstones away"},
	{Name: "store.bytes_per_summary", Unit: "B", Better: lower, Doc: "store directory size per summary"},
	{Name: "store.persist_tax_pct", Unit: "%", Better: lower, Doc: "cold-and-persist over cold without a store, paired, min of 5"},
	{Name: "store.op_overhead_s", Unit: "s", Better: lower, Doc: "traced pass: store open and close around the engine runs"},
	{Name: "store.warm_recheck_ms", Unit: "ms", Better: lower, Doc: "untraced pass: median unchanged-source re-check"},
	{Name: "store.cold_persist_s", Unit: "s", Better: lower, Doc: "untraced pass: summed cold-and-persist checks"},

	{Name: "wire.encode_ns_per_summary", Unit: "ns", Better: lower, Doc: "AppendSummary"},
	{Name: "wire.decode_ns_per_summary", Unit: "ns", Better: lower, Doc: "DecodeSummary"},
	{Name: "wire.bytes_per_summary", Unit: "B", Better: lower, Doc: "encoded size"},
	{Name: "logic.wire_ns_per_formula", Unit: "ns", Better: lower, Doc: "AppendWire plus DecodeWire of one formula"},

	{Name: "incr.snapshot_ms", Unit: "ms", Better: lower, Doc: "incr.Snapshot of one program"},
	{Name: "incr.diff_us", Unit: "us", Better: lower, Doc: "incr.Diff of two manifests"},
	{Name: "incr.plan_us", Unit: "us", Better: lower, Doc: "incr.PlanInvalidation over the call graph"},
	{Name: "incr.invalidated_share", Unit: "ratio", Better: lower, Doc: "summaries an edit discarded, over summaries stored"},
	{Name: "incr.surviving_share", Unit: "ratio", Better: higher, Doc: "summaries an edit kept, over summaries stored"},
	{Name: "incr.reused_verdict_share", Unit: "ratio", Better: higher, Doc: "re-checks answered from the stored verdict"},
	{Name: "incr.recheck_ticks", Unit: "ticks", Better: lower, Doc: "PUNCH cost of the edit re-checks"},
	{Name: "incr.edit_recheck_ms_p50", Unit: "ms", Better: lower, Doc: "untraced pass: median edit re-check"},

	{Name: "prov.overhead_pct", Unit: "%", Better: lower, Doc: "CollectProvenance on over off, paired, min of 5"},
	{Name: "prov.cone_procs", Unit: "count", Better: lower, Doc: "procedures in the verdict's cone"},
	{Name: "prov.summary_reads", Unit: "count", Better: lower, Doc: "summary reads recorded"},

	{Name: "witness.find_ms", Unit: "ms", Better: lower, Doc: "witness.Find per refuted program"},
	{Name: "witness.refute_wall_s", Unit: "s", Better: lower, Doc: "untraced pass: wall time of the operations on buggy variants, witness search included"},
	{Name: "interp.replay_ms", Unit: "ms", Better: lower, Doc: "Trace.Replay per witness"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower, Doc: "traced over untraced pass wall time"},
	{Name: "obs.events", Unit: "count", Better: lower, Doc: "lifecycle events recorded"},
	{Name: "obs.spans", Unit: "count", Better: lower, Doc: "spans recorded"},
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles are the first and third quartile as the benchmark contract
// takes them (Python's statistics.quantiles(values, n=4), exclusive
// method), so that spreads printed here match the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}
