package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	bolt "repro"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parser"
	"repro/internal/prov"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/must"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
	"repro/internal/witness"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into the layer. Spans of one operation share
// Op; Parent is the span whose call caused this one (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SummaryNs is the time a PUNCH step spent inside the summary
	// database, folded into the step's span so that a span per lookup
	// need not be held; Cost is the step's abstract cost in ticks.
	SummaryNs int64 `json:"summary_ns,omitempty"`
	Cost      int64 `json:"cost,omitempty"`
}

// spanLog holds the spans in memory until the pass ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

func (l *spanLog) open(parent, op int, layer, name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, StartNs: l.now()})
	return len(l.spans)
}

func (l *spanLog) close(id int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndNs = l.now()
	return s.EndNs - s.StartNs
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children of a parallel engine run overlap, so the
// covered part is the union of their intervals).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, end := int64(0), s.StartNs
		for _, k := range ks {
			from, to := max(spans[k].StartNs, end), min(spans[k].EndNs, s.EndNs)
			if to > from {
				covered += to - from
				end = to
			}
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// dbStats is the summary-database traffic one PUNCH step caused.
type dbStats struct {
	answerCalls, answerHits, answerNs int64
	addCalls, addNs                   int64
	forProcCalls, forProcNs           int64
}

func (d *dbStats) merge(o dbStats) {
	d.answerCalls += o.answerCalls
	d.answerHits += o.answerHits
	d.answerNs += o.answerNs
	d.addCalls += o.addCalls
	d.addNs += o.addNs
	d.forProcCalls += o.forProcCalls
	d.forProcNs += o.forProcNs
}

func (d dbStats) ns() int64 { return d.answerNs + d.addNs + d.forProcNs }

// timedDB decorates the summary database a PUNCH step sees. One is made
// per step, so it needs no locking.
type timedDB struct {
	inner punch.DB
	dbStats
}

func (d *timedDB) Solver() *smt.Solver { return d.inner.Solver() }

func (d *timedDB) Add(s summary.Summary) {
	t0 := time.Now()
	d.inner.Add(s)
	d.addNs += time.Since(t0).Nanoseconds()
	d.addCalls++
}

func (d *timedDB) answered(t0 time.Time, hit bool) {
	d.answerNs += time.Since(t0).Nanoseconds()
	d.answerCalls++
	if hit {
		d.answerHits++
	}
}

func (d *timedDB) Answer(q summary.Question) (summary.Summary, int) {
	t0 := time.Now()
	s, r := d.inner.Answer(q)
	d.answered(t0, r != 0)
	return s, r
}

func (d *timedDB) AnswerYes(q summary.Question) (summary.Summary, bool) {
	t0 := time.Now()
	s, ok := d.inner.AnswerYes(q)
	d.answered(t0, ok)
	return s, ok
}

func (d *timedDB) AnswerNo(q summary.Question) (summary.Summary, bool) {
	t0 := time.Now()
	s, ok := d.inner.AnswerNo(q)
	d.answered(t0, ok)
	return s, ok
}

func (d *timedDB) ForProc(proc string) []summary.Summary {
	t0 := time.Now()
	out := d.inner.ForProc(proc)
	d.forProcNs += time.Since(t0).Nanoseconds()
	d.forProcCalls++
	return out
}

// stepStats accumulates what the PUNCH decorator saw during one engine
// run.
type stepStats struct {
	steps, done, children int64
	stepNs, cost          int64
	db                    dbStats
}

func (s *stepStats) merge(o stepStats) {
	s.steps += o.steps
	s.done += o.done
	s.children += o.children
	s.stepNs += o.stepNs
	s.cost += o.cost
	s.db.merge(o.db)
}

// tracedPunch decorates the PUNCH instantiation handed to an engine: a
// span per Step, the step's summary-database traffic timed through a
// timedDB, and a note of every solver the engine shows it, so that solver
// counters can be read when the run is over.
type tracedPunch struct {
	inner  punch.Punch
	layer  string // "punch.maymust", "punch.may" or "punch.must"
	log    *spanLog
	parent int
	op     int

	mu      sync.Mutex
	stats   stepStats
	solvers map[*smt.Solver]bool
}

func (p *tracedPunch) Name() string { return p.inner.Name() }

func (p *tracedPunch) Step(ctx *punch.Context, q *query.Query) punch.Result {
	db := &timedDB{inner: ctx.DB}
	c := *ctx
	c.DB = db
	start := p.log.now()
	r := p.inner.Step(&c, q)
	end := p.log.now()
	p.log.add(span{Parent: p.parent, Op: p.op, Layer: p.layer, Name: q.Q.Proc,
		StartNs: start, EndNs: end, SummaryNs: db.ns(), Cost: r.Cost})
	step := stepStats{steps: 1, stepNs: end - start, cost: r.Cost, children: int64(len(r.Children)), db: db.dbStats}
	if r.Self != nil && r.Self.State == query.Done {
		step.done = 1
	}
	p.mu.Lock()
	p.stats.merge(step)
	p.solvers[ctx.DB.Solver()] = true
	p.mu.Unlock()
	return r
}

// addSolverStats adds the counters the layer metrics report.
func addSolverStats(dst *smt.Stats, s smt.Stats) {
	dst.SatCalls += s.SatCalls
	dst.TheoryChecks += s.TheoryChecks
	dst.Ticks += s.Ticks
	dst.EntailCacheHits += s.EntailCacheHits
	dst.EntailCacheMisses += s.EntailCacheMisses
	dst.DPLLConflicts += s.DPLLConflicts
}

func (p *tracedPunch) solverStats() smt.Stats {
	var out smt.Stats
	for s := range p.solvers {
		addSolverStats(&out, s.StatsSnapshot())
	}
	return out
}

// punchLayer names the PUNCH instantiation as a layer: punch.maymust,
// punch.may or punch.must.
func punchLayer(analysis string) string {
	if analysis == "may-must" {
		return "punch.maymust"
	}
	return "punch." + analysis
}

func newPunch(analysis string) punch.Punch {
	switch analysis {
	case "may":
		return may.New()
	case "must":
		return must.New()
	}
	return maymust.New()
}

// incrFingerprint is the edit-stable store fingerprint the facade opens
// an incremental store under.
func incrFingerprint(analysis string) store.Fingerprint {
	return store.NewFingerprint("bolt/incr-store", strconv.Itoa(wire.Version), analysis)
}

func verdictOf(v core.Verdict) bolt.Verdict {
	switch v {
	case core.Safe:
		return bolt.Safe
	case core.ErrorReachable:
		return bolt.ErrorReachable
	}
	return bolt.Unknown
}

// engineRun is what a traced engine run leaves behind for the layer
// metrics, beyond the outcome every pass reports.
type engineRun struct {
	op        op
	wallNs    int64
	coreNs    int64
	parseNs   int64
	srcBytes  int
	prog      *cfg.Program
	steps     stepStats
	solver    smt.Stats
	internHit int64
	internMis int64
	events    []obs.Event
	report    *analyze.Report

	iterations, rounds   int
	peakLive, peakReady  int
	steals, coalesceHits int64
	summaries            []summary.Summary
	provenance           *prov.Provenance
	storeNs              int64 // open + close of the operation's store
	witnessNs, replayNs  int64
}

// tracer runs operations with the engines driven directly — the same
// options the facade builds from an op — and every layer measured from
// outside.
type tracer struct {
	log  *spanLog
	runs []*engineRun
}

func (t *tracer) run(i int) func(op, string, string) (outcome, error) {
	return func(o op, src, passDir string) (outcome, error) {
		er := &engineRun{op: o, srcBytes: len(src)}
		opSpan := t.log.open(0, i, "bench", o.Name)
		defer func() {
			er.wallNs = t.log.close(opSpan)
			t.runs = append(t.runs, er)
		}()

		id := t.log.open(opSpan, i, "parser", "parse")
		prog, err := parser.Parse(src)
		er.parseNs = t.log.close(id)
		if err != nil {
			return outcome{}, err
		}
		er.prog = prog

		var st store.Store
		if o.Store != "" {
			id := t.log.open(opSpan, i, "store", "open")
			d, err := store.OpenDisk(filepath.Join(passDir, o.Store), incrFingerprint(o.Analysis), false)
			er.storeNs += t.log.close(id)
			if err != nil {
				return outcome{storeErr: err}, nil
			}
			st = d
		}

		rec := &obs.Recording{}
		coreSpan := t.log.open(opSpan, i, "core", o.Engine)
		tp := &tracedPunch{inner: newPunch(o.Analysis), layer: punchLayer(o.Analysis), log: t.log, parent: coreSpan, op: i, solvers: map[*smt.Solver]bool{}}
		hit0, miss0 := logic.InternStats()
		q0 := core.AssertionQuestion(prog)
		var out outcome
		if o.Engine == engDist {
			r := core.NewDistributed(prog, core.DistOptions{
				Punch: tp, Nodes: o.Threads, ThreadsPerNode: 1, MaxRounds: o.MaxRounds, Tracer: rec,
			}).RunContext(context.Background(), q0)
			out = outcome{verdict: verdictOf(r.Verdict), ticks: r.VirtualTicks, queries: r.TotalQueries, storeErr: r.StoreErr}
			er.rounds, er.coalesceHits = r.Rounds, r.CoalesceHits
			for _, n := range r.PerNodePeakLive {
				er.peakLive += n
			}
		} else {
			r := core.New(prog, core.Options{
				Punch: tp, MaxThreads: o.Threads, VirtualCores: o.Threads, MaxVirtualTicks: o.MaxTicks,
				Async: o.Engine == engStream, Store: st, Tracer: rec, Incremental: o.Store != "",
			}).RunContext(context.Background(), q0)
			out = outcome{
				verdict: verdictOf(r.Verdict), ticks: r.VirtualTicks, queries: r.TotalQueries, storeErr: r.StoreErr,
				reused: r.ReusedVerdict, invalidated: r.InvalidatedSummaries, surviving: r.SurvivingSummaries,
			}
			er.iterations, er.peakLive, er.peakReady = r.Iterations, r.PeakLive, r.PeakReady
			er.steals, er.coalesceHits = r.Steals, r.CoalesceHits
			er.summaries, er.provenance = r.Summaries, r.Provenance
		}
		er.coreNs = t.log.close(coreSpan)
		hit1, miss1 := logic.InternStats()
		er.internHit, er.internMis = hit1-hit0, miss1-miss0
		er.steps, er.solver, er.events = tp.stats, tp.solverStats(), rec.Events()
		out.satCalls = er.solver.SatCalls

		if st != nil {
			id := t.log.open(opSpan, i, "store", "close")
			err := st.Close()
			er.storeNs += t.log.close(id)
			if err != nil && out.storeErr == nil {
				out.storeErr = err
			}
		}
		if o.Witness && out.verdict == bolt.ErrorReachable {
			id := t.log.open(opSpan, i, "witness", "find")
			tr, ok := witness.Find(prog, witness.Options{})
			er.witnessNs = t.log.close(id)
			if ok {
				id := t.log.open(opSpan, i, "interp", "replay")
				out.hasWitness = tr.Replay(prog)
				er.replayNs = t.log.close(id)
			}
		}
		return out, nil
	}
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Ops      []string `json:"ops"`
	Spans    []span   `json:"spans"`
	// SelfNs[i] is the self time of Spans[i].
	SelfNs []int64 `json:"self_ns"`
}

// tracedPass runs every operation once under the tracer, derives the
// per-layer metrics, and writes the spans out when it is done.
func tracedPass(w *workload, passDir, outDir string, res *passResult) error {
	t := &tracer{log: &spanLog{t0: time.Now()}}
	for i := range w.Ops {
		r := runOp(i, w, passDir, t.run(i))
		res.Ops = append(res.Ops, r)
	}
	for i, er := range t.runs {
		if len(er.events) > 0 {
			// A re-check answered from the stored verdict runs no PUNCH and
			// leaves no events; anything else that fails to analyse is a bug
			// worth failing the operation for.
			rep, err := analyze.Analyze(er.events)
			if err != nil {
				res.Ops[i].Failed = "trace analysis: " + err.Error()
			}
			er.report = rep
		}
		res.Ops[i].Work = er.steps.cost
	}
	res.Layers = layerMetrics(w, t, res.Ops, passDir)

	names := make([]string, len(w.Ops))
	for i, o := range w.Ops {
		names[i] = o.Name
	}
	data, err := json.Marshal(traceFile{Workload: w.Name, Seed: w.Seed, Ops: names, Spans: t.log.spans, SelfNs: selfTimes(t.log.spans)})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, w.Name+".trace.json"), data, 0o644)
}
