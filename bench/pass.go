package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	bolt "repro"
	"repro/internal/parser"
	"repro/internal/witness"
)

// Pass variants a child process can run.
const (
	variantPlain  = "plain"  // public facade only, all tracing off: the end-to-end numbers
	variantTraced = "traced" // engines driven directly, decorated and timed from outside
	// variantSeqRef runs each distinct input of the workload's parallel
	// operations once on one thread through the facade: the sequential
	// work and wall time that parallel work and speed-up are held against.
	variantSeqRef = "seqref"
)

// opResult is what one operation produced.
type opResult struct {
	Op      int    `json:"op"`
	WallNs  int64  `json:"wall_ns"`
	Verdict string `json:"verdict"`
	Decided bool   `json:"decided"`
	// Failed names what went wrong: a verdict contradicting the known
	// answer, a witness that does not replay, a store error, a panic.
	Failed string `json:"failed,omitempty"`
	// Ticks is Result.VirtualTicks: total PUNCH cost on one thread, a
	// makespan otherwise. Work is total PUNCH cost under any engine and
	// is only known to the traced pass.
	Ticks       int64 `json:"ticks"`
	Work        int64 `json:"work,omitempty"`
	Queries     int64 `json:"queries"`
	SatCalls    int64 `json:"sat_calls"`
	Reused      bool  `json:"reused,omitempty"`
	Invalidated int   `json:"invalidated,omitempty"`
	Surviving   int   `json:"surviving,omitempty"`
}

// passResult is one pass: every operation of the workload, once, in a
// process of its own.
type passResult struct {
	Variant    string             `json:"variant"`
	Ops        []opResult         `json:"ops"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	// Filled in by the parent from the child's rusage.
	CPUSeconds float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
}

// wall sums the wall time of the pass's operations that keep accepts
// (nil: all of them), in seconds.
func (p *passResult) wall(w *workload, keep func(op) bool) float64 {
	var ns int64
	for _, r := range p.Ops {
		if keep == nil || keep(w.Ops[r.Op]) {
			ns += r.WallNs
		}
	}
	return float64(ns) / 1e9
}

func analysisOf(name string) bolt.Analysis {
	switch name {
	case "may":
		return bolt.May
	case "must":
		return bolt.Must
	}
	return bolt.MayMust
}

// outcome is the part of a facade or engine result the oracle and the
// metrics need, whichever engine produced it.
type outcome struct {
	verdict     bolt.Verdict
	ticks       int64
	queries     int64
	satCalls    int64
	storeErr    error
	hasWitness  bool
	reused      bool
	invalidated int
	surviving   int
}

// runFacade takes one operation from source text to verdict through the
// public API only. This is the measured path of the end-to-end metrics.
func runFacade(o op, src, passDir string) (outcome, error) {
	prog, err := bolt.Parse(src)
	if err != nil {
		return outcome{}, err
	}
	if o.Engine == engDist {
		r, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{
			Analysis:       analysisOf(o.Analysis),
			Nodes:          o.Threads,
			ThreadsPerNode: 1,
			MaxRounds:      o.MaxRounds,
		})
		return outcome{verdict: r.Verdict, ticks: r.VirtualTicks, queries: r.TotalQueries, storeErr: r.StoreErr}, err
	}
	opts := bolt.Options{
		Analysis:        analysisOf(o.Analysis),
		Threads:         o.Threads,
		VirtualCores:    o.Threads,
		MaxVirtualTicks: o.MaxTicks,
		Async:           o.Engine == engStream,
		FindWitness:     o.Witness,
	}
	if o.Store != "" {
		opts.StorePath = filepath.Join(passDir, o.Store)
		opts.Incremental = true
	}
	r := prog.Check(opts)
	return outcome{
		verdict: r.Verdict, ticks: r.VirtualTicks, queries: r.TotalQueries,
		satCalls: r.Solver.SatCalls, storeErr: r.StoreErr, hasWitness: r.Witness != nil,
		reused: r.ReusedVerdict, invalidated: r.InvalidatedSummaries, surviving: r.SurvivingSummaries,
	}, nil
}

// judge holds an outcome against the operation's known answer. An
// Unknown verdict (a must analysis on a safe program, a spent budget) is
// undecided, never wrong; a definite verdict must equal the known answer,
// a reported bug must come with a witness that replays on the concrete
// interpreter, and the store must not have failed.
func judge(o op, src string, out outcome) (decided bool, failed string) {
	if out.storeErr != nil {
		return false, "store: " + out.storeErr.Error()
	}
	switch out.verdict {
	case bolt.Unknown:
		return false, ""
	case bolt.Safe:
		if o.Expect != expectSafe {
			return true, "verdict Safe, known answer is a bug"
		}
	case bolt.ErrorReachable:
		if o.Expect != expectBug {
			return true, "verdict Error Reachable, known answer is safe"
		}
		if o.Witness {
			if !out.hasWitness {
				return true, "no witness attached to Error Reachable"
			}
			prog, err := parser.Parse(src)
			if err != nil {
				return true, "witness replay: " + err.Error()
			}
			if tr, ok := witness.Find(prog, witness.Options{}); !ok || !tr.Replay(prog) {
				return true, "witness does not replay"
			}
		}
	}
	return true, ""
}

// runOp times one operation and judges it; a panic anywhere below the
// facade is a failed operation, not a dead benchmark.
func runOp(i int, w *workload, passDir string, run func(op, string, string) (outcome, error)) (res opResult) {
	o, src := w.Ops[i], w.Sources[w.Ops[i].Src]
	res.Op = i
	defer func() {
		if p := recover(); p != nil {
			res.Failed = fmt.Sprint("panic: ", p)
		}
	}()
	t0 := time.Now()
	out, err := run(o, src, passDir)
	res.WallNs = time.Since(t0).Nanoseconds()
	if err != nil {
		res.Failed = err.Error()
		return res
	}
	res.Verdict = out.verdict.String()
	res.Ticks, res.Queries, res.SatCalls = out.ticks, out.queries, out.satCalls
	res.Reused, res.Invalidated, res.Surviving = out.reused, out.invalidated, out.surviving
	res.Decided, res.Failed = judge(o, src, out)
	return res
}

// seqRefOps lists, for the seqref variant, one single-thread operation
// per distinct input among the workload's parallel operations.
func seqRefOps(w *workload) []int {
	seen := map[string]bool{}
	var out []int
	for i, o := range w.Ops {
		if o.Threads > 1 && !seen[o.input()] {
			seen[o.input()] = true
			out = append(out, i)
		}
	}
	return out
}

// childArg, as first argument, makes the binary a measuring process.
const childArg = "child-pass"

// runIfChild turns the process into a measuring child when it was started
// as one; the test binary calls it too, so that passes can be run from
// tests.
func runIfChild() {
	if len(os.Args) != 6 || os.Args[1] != childArg {
		return
	}
	if err := childMain(os.Args[3], os.Args[2], os.Args[4], os.Args[5]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// childMain is the measuring process: it loads the generated inputs,
// runs one pass and prints the result as JSON on standard output.
func childMain(dir, variant, passDir, outDir string) error {
	w, err := loadWorkload(dir)
	if err != nil {
		return err
	}
	res := passResult{Variant: variant}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	switch variant {
	case variantPlain:
		for i := range w.Ops {
			res.Ops = append(res.Ops, runOp(i, w, passDir, runFacade))
		}
	case variantSeqRef:
		for _, i := range seqRefOps(w) {
			res.Ops = append(res.Ops, runOp(i, w, passDir, func(o op, src, dir string) (outcome, error) {
				o.Engine, o.Threads = engSeq, 1
				return runFacade(o, src, dir)
			}))
		}
	case variantTraced:
		if err := tracedPass(w, passDir, outDir, &res); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown pass variant %q", variant)
	}
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runPass re-executes this binary as a fresh process for one pass and
// waits for it: the hash-cons table in internal/logic is process-global,
// and a user of boltcheck always pays for a cold one. The child's rusage
// gives the pass its CPU time and peak resident set.
func (c config) runPass(dir, variant string, n int) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	passDir := filepath.Join(dir, fmt.Sprintf("pass-%s-%d", variant, n))
	if err := os.MkdirAll(passDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(passDir)
	cmd := exec.Command(self, childArg, variant, dir, passDir, c.outDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(c.threads))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", variant, n, err)
	}
	res := &passResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s pass %d: reading result: %w", variant, n, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.CPUSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
