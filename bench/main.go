// Command bench is the repository's benchmark: the cost of taking source
// text to a verdict on four workloads, end to end through the public API
// and, in a separate traced pass, layer by layer from outside. See
// README.md beside this file; BENCHMARK.json at the repository root names
// the command (bench/run.sh), the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// One run repeats its set-up step at least setupMinReps times and for at
// least setupMinTime (a millisecond-scale set-up needs the repeats to get
// past the cold start that follows the build), at most setupMaxReps
// times; setup_s is the median.
const (
	setupMinReps = 15
	setupMaxReps = 300
	setupMinTime = 300 * time.Millisecond
)

// runSeconds is the measuring time BENCHMARK.json asks the driver for.
const runSeconds = 23

// maxThreads caps the thread, virtual-core and node count of parallel
// operations; below it the box's CPU count is used.
const maxThreads = 4

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output in contract mode.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is written with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sampleStats says how many samples stand behind a metric and where
// their quartiles lie.
type sampleStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// checkRow is one operation name's own row: every check is reported by
// itself, never only inside a total.
type checkRow struct {
	Name     string  `json:"name"`
	Samples  int     `json:"samples"`
	WallMs   float64 `json:"wall_ms_median"`
	Verdict  string  `json:"verdict"`
	Expect   string  `json:"expect"`
	Ticks    int64   `json:"ticks"`
	Queries  int64   `json:"queries"`
	SatCalls int64   `json:"sat_calls"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Env       environment            `json:"env"`
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]sampleStats `json:"samples,omitempty"`
	Checks    []checkRow             `json:"checks,omitempty"`
	// Derived holds figures that are printed with their bases but not
	// gated: every ratio names what it is a ratio of.
	Derived map[string]string `json:"derived,omitempty"`
}

type config struct {
	root    string // repository root
	outDir  string // where trace files go
	threads int
	env     environment
}

func newConfig(root, outDir string) config {
	threads := min(runtime.NumCPU(), maxThreads)
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return config{root: root, outDir: outDir, threads: threads, env: environment{
		NProc: runtime.NumCPU(), GoMaxProcs: threads, GoVersion: runtime.Version(), Commit: commit,
	}}
}

// workDir makes the run's scratch directory below .bench_build, inside
// the checkout.
func (c config) workDir(name string, seed int64) (string, error) {
	base := filepath.Join(c.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("%s-%d-", name, seed))
}

func stats(xs []float64) sampleStats {
	s := sampleStats{N: len(xs), Median: median(xs)}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(xs) >= 2 {
		s.Q1, s.Q3 = quartiles(xs)
	}
	return s
}

// collect folds passes into the parts of a result both kinds of run
// share: the oracle's tally and one row per check.
func (r *runResult) collect(w *workload, passes []*passResult) {
	type acc struct {
		walls []float64
		last  opResult
	}
	rows := map[string]*acc{}
	var order []string
	for _, p := range passes {
		for _, o := range p.Ops {
			r.Attempted++
			name := w.Ops[o.Op].Name
			if p.Variant != variantPlain {
				name = p.Variant + ":" + name
			}
			if o.Failed != "" {
				r.Failed++
				r.Failures = append(r.Failures, name+": "+o.Failed)
			}
			a := rows[name]
			if a == nil {
				a = &acc{}
				rows[name] = a
				order = append(order, name)
			}
			a.walls = append(a.walls, float64(o.WallNs)/1e6)
			a.last = o
		}
	}
	for _, name := range order {
		a := rows[name]
		r.Checks = append(r.Checks, checkRow{
			Name: name, Samples: len(a.walls), WallMs: median(a.walls), Verdict: a.last.Verdict,
			Expect: w.Ops[a.last.Op].Expect, Ticks: a.last.Ticks, Queries: a.last.Queries, SatCalls: a.last.SatCalls,
		})
	}
}

// runEndToEnd is a --trace 0 run: repeated set-up, then untraced passes,
// one fresh process each and one operation at a time, until the measuring
// time is used up. A pass is never cut short: another one starts only
// while at least half of it still fits, so a run measures for
// seconds ± half a pass. passes > 0 fixes the number of passes instead.
func runEndToEnd(c config, name string, seed int64, seconds float64, passes int) (*runResult, error) {
	work, err := c.workDir(name, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var setups []float64
	var w *workload
	dir := filepath.Join(work, "input")
	for began := time.Now(); len(setups) < setupMinReps || (len(setups) < setupMaxReps && time.Since(began) < setupMinTime); {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if w, err = setup(name, seed, c.threads, c.root, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var done []*passResult
	start := time.Now()
	for n := 0; ; n++ {
		if passes > 0 {
			if n >= passes {
				break
			}
		} else if elapsed := time.Since(start).Seconds(); n > 0 && elapsed+elapsed/float64(n)/2 > seconds {
			break // less than half a pass is left
		}
		p, err := c.runPass(dir, variantPlain, n)
		if err != nil {
			return nil, err
		}
		done = append(done, p)
	}

	return endToEndResult(c, w, setups, done), nil
}

// endToEndResult turns set-up times and untraced passes into the
// end-to-end metrics.
func endToEndResult(c config, w *workload, setups []float64, done []*passResult) *runResult {
	r := &runResult{Workload: w.Name, Seed: w.Seed, Env: c.env, Passes: len(done),
		Metrics: map[string]metricValue{}, Samples: map[string]sampleStats{}}
	r.collect(w, done)
	var wall, cpu, rss, alloc, ops []float64
	decided := 0
	for _, p := range done {
		wall = append(wall, p.wall(w, nil))
		cpu = append(cpu, p.CPUSeconds)
		rss = append(rss, p.PeakRSSMB)
		alloc = append(alloc, float64(p.AllocBytes)/(1<<20))
		for _, o := range p.Ops {
			ops = append(ops, float64(o.WallNs)/1e6)
			if o.Decided {
				decided++
			}
		}
	}
	samples := map[string][]float64{
		"setup_s": setups, "pass_wall_s": wall, "pass_cpu_s": cpu, "peak_rss_mb": rss, "alloc_mb": alloc,
		"op_wall_ms_p50": ops, "op_wall_ms_p90": ops,
	}
	for _, d := range endToEnd {
		var v float64
		switch d.Name {
		case "op_wall_ms_p90":
			v = quantile(ops, 0.9)
		case "decided_share":
			v = ratio(float64(decided), float64(r.Attempted))
		default:
			v = median(samples[d.Name])
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
		if xs, ok := samples[d.Name]; ok {
			r.Samples[d.Name] = stats(xs)
		}
	}
	return r
}

// runTraced is a --trace 1 run: one untraced pass, one traced pass of the
// same operations, and — where the workload has parallel operations with
// no one-thread twin — one sequential reference pass, each in a process
// of its own. The per-layer metrics come from the traced pass; the
// untraced pass beside it gives the tracing overhead and the segment
// times that only some workloads have.
func runTraced(c config, name string, seed int64) (*runResult, error) {
	work, err := c.workDir(name, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "input")
	w, err := setup(name, seed, c.threads, c.root, dir)
	if err != nil {
		return nil, err
	}
	plain, err := c.runPass(dir, variantPlain, 0)
	if err != nil {
		return nil, err
	}
	traced, err := c.runPass(dir, variantTraced, 0)
	if err != nil {
		return nil, err
	}
	var ref *passResult
	if needsSeqRef(w) {
		if ref, err = c.runPass(dir, variantSeqRef, 0); err != nil {
			return nil, err
		}
	}
	return tracedResult(c, w, plain, traced, ref)
}

// needsSeqRef reports whether some parallel operation of w has no
// one-thread operation on the same input beside it.
func needsSeqRef(w *workload) bool {
	hasSeq := map[string]bool{}
	for _, o := range w.Ops {
		hasSeq[o.input()] = hasSeq[o.input()] || o.Threads == 1
	}
	for _, o := range w.Ops {
		if !hasSeq[o.input()] {
			return true
		}
	}
	return false
}

// tracedResult turns an untraced pass, a traced pass of the same
// operations and, where there is one, the sequential reference pass into
// the per-layer metrics.
func tracedResult(c config, w *workload, plain, traced, ref *passResult) (*runResult, error) {
	passes := []*passResult{plain, traced}

	// Sequential work and wall time per input come from the workload's own
	// one-thread operations or, failing those, from the reference pass.
	seqWork, seqWall := map[string]int64{}, map[string]int64{}
	for _, o := range traced.Ops {
		if wo := w.Ops[o.Op]; wo.Threads == 1 && o.Decided {
			seqWork[wo.input()] = o.Work
		}
	}
	for _, o := range plain.Ops {
		if wo := w.Ops[o.Op]; wo.Threads == 1 && o.Decided {
			seqWall[wo.input()] = o.WallNs
		}
	}
	if ref != nil {
		passes = append(passes, ref)
		for _, o := range ref.Ops {
			if o.Decided {
				seqWork[w.Ops[o.Op].input()] = o.Ticks // one thread: ticks are work
				seqWall[w.Ops[o.Op].input()] = o.WallNs
			}
		}
	}

	r := &runResult{Workload: w.Name, Seed: w.Seed, Traced: true, Env: c.env, Passes: len(passes),
		Metrics: map[string]metricValue{}, Derived: map[string]string{}}
	r.collect(w, passes)
	m := traced.Layers
	if m == nil {
		return nil, fmt.Errorf("traced pass of %s reported no layer metrics", w.Name)
	}

	var parWork, parBase int64
	for _, o := range traced.Ops {
		wo := w.Ops[o.Op]
		if base, ok := seqWork[wo.input()]; ok && wo.Threads > 1 && o.Decided {
			parWork += o.Work
			parBase += base
		}
	}
	m["core.work_inflation"] = 1 // no parallel operation: nothing to inflate
	if parBase > 0 {
		m["core.work_inflation"] = float64(parWork) / float64(parBase)
		r.Derived["core.work_inflation"] = fmt.Sprintf("%d ticks of parallel work / %d ticks of one-thread work on the same inputs", parWork, parBase)
	}

	plainWall, tracedWall := plain.wall(w, nil), traced.wall(w, nil)
	m["obs.trace_overhead_pct"] = 100 * ratio(tracedWall-plainWall, plainWall)
	r.Derived["obs.trace_overhead_pct"] = fmt.Sprintf("traced %.4f s over untraced %.4f s", tracedWall, plainWall)

	m["core.stream_wall_s"] = plain.wall(w, func(o op) bool { return o.Engine == engStream })
	m["core.barrier_wall_s"] = plain.wall(w, func(o op) bool { return o.Engine == engBarrier })
	m["core.dist_wall_s"] = plain.wall(w, func(o op) bool { return o.Engine == engDist })
	m["witness.refute_wall_s"] = plain.wall(w, func(o op) bool { return o.Expect == expectBug && o.Witness })
	m["store.cold_persist_s"] = plain.wall(w, func(o op) bool { return o.Segment == "cold" })
	var warm, edit []float64
	var streamNs, streamSeqNs int64
	for _, o := range plain.Ops {
		wo := w.Ops[o.Op]
		switch wo.Segment {
		case "warm":
			warm = append(warm, float64(o.WallNs)/1e6)
		case "edit":
			edit = append(edit, float64(o.WallNs)/1e6)
		}
		if base, ok := seqWall[wo.input()]; ok && wo.Engine == engStream && o.Decided {
			streamNs += o.WallNs
			streamSeqNs += base
		}
	}
	m["store.warm_recheck_ms"] = median(warm)
	m["incr.edit_recheck_ms_p50"] = median(edit)
	if streamNs > 0 {
		m["core.par_speedup_wall"] = ratio(float64(streamSeqNs), float64(streamNs))
		r.Derived["core.par_speedup_wall"] = fmt.Sprintf("one thread %.4f s / streaming at %d threads %.4f s, same inputs, both untraced",
			float64(streamSeqNs)/1e9, c.threads, float64(streamNs)/1e9)
	}

	for _, d := range perLayer {
		r.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return r, nil
}

// print writes the result for people: every metric by name with its
// unit, sample counts and quartiles where there are samples, every check
// in its own row, and every failed operation by name.
func (r *runResult) print() {
	defs, kind := endToEnd, "end to end"
	if r.Traced {
		defs, kind = perLayer, "traced"
	}
	fmt.Printf("== %s  seed %d  %s  passes %d  (nproc %d, GOMAXPROCS %d, %s, commit %s)\n",
		r.Workload, r.Seed, kind, r.Passes,
		r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit)
	for _, d := range defs {
		v := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-30s %14.6g %-6s", d.Name, v.Value, v.Unit)
		if s, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%-5d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Println(line + "  # " + d.Doc)
	}
	keys := make([]string, 0, len(r.Derived))
	for k := range r.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s = %s\n", k, r.Derived[k])
	}
	fmt.Printf("  %-52s %7s %12s %-8s %-30s %10s %8s %9s\n", "check", "samples", "wall_ms", "expect", "verdict", "ticks", "queries", "sat_calls")
	for _, c := range r.Checks {
		fmt.Printf("  %-52s %7d %12.3f %-8s %-30s %10d %8d %9d\n", c.Name, c.Samples, c.WallMs, c.Expect, c.Verdict, c.Ticks, c.Queries, c.SatCalls)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

func (r *runResult) contract() contractLine {
	return contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, end to end and traced)")
		seed         = flag.Int64("seed", 0, "input seed; 0 is the programs as generated")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time of an end-to-end run")
		trace        = flag.Int("trace", 0, "1: report the per-layer metrics of a traced pass instead of the end-to-end metrics")
		passes       = flag.Int("passes", 0, "fixed number of end-to-end passes (0: as many as fit in -seconds)")
		root         = flag.String("root", ".", "repository root")
		outDir       = flag.String("out", "", "directory for trace files (default <root>/bench/out)")
		jsonOut      = flag.String("json", "", "also write the full results to this file")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice and hold the two sets against the bounds in BENCHMARK.json")
		emit         = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables in this program define it")
	)
	runIfChild()
	flag.Parse()
	if *outDir == "" {
		*outDir = filepath.Join(*root, "bench", "out")
	}
	if *emit {
		fmt.Println(benchmarkJSON())
		return
	}
	c := newConfig(*root, *outDir)
	if *selfcheck {
		os.Exit(selfCheck(c, *seed, *seconds, *passes))
	}

	names := workloadNames()
	traces := []bool{false, true}
	if *workloadName != "" {
		names, traces = []string{*workloadName}, []bool{*trace == 1}
	}
	var results []*runResult
	failed := 0
	for _, name := range names {
		for _, tr := range traces {
			var r *runResult
			var err error
			if tr {
				r, err = runTraced(c, name, *seed)
			} else {
				r, err = runEndToEnd(c, name, *seed, *seconds, *passes)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			r.print()
			results = append(results, r)
			failed += r.Failed
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if *workloadName != "" {
		line, err := json.Marshal(results[0].contract())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
