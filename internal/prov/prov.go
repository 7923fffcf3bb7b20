// Package prov derives verdict provenance — which SUMDB summaries and
// procedures an engine's answer actually depends on — from the run's one
// event stream. Two pieces do it. A Frame is one PUNCH invocation's view
// of the summary database: it delegates every call and logs the
// invocation's SUMDB traffic (summaries that answered a question, ForProc
// scans, summaries published), which the reducer emits as EvSumRead and
// EvSumAdd events right after the invocation's EvPunchEnd. A Fold is the
// tracer that turns the stream into provenance: spawn and coalesce events
// give the structural edges PUNCH cannot see, summary events the traffic,
// and Finish assembles a Provenance value — the verdict→summary→procedure
// dependency DAG, the verdict's procedure cone, and the per-procedure
// invalidation cones that seed incremental re-analysis.
//
// The cone is defined at procedure granularity on purpose: a callee
// appears in a verdict's cone whether its dependency was satisfied by a
// stored summary, a fresh spawned child, or an in-flight twin, so the
// procedure set is schedule-invariant — identical across the barrier,
// async, and distributed engines even though their query DAGs differ.
package prov

import (
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/summary"
)

// Access is one SUMDB call a Frame logged: a summary read (with Scan, a
// ForProc scan of Sum.Proc, whose other fields are empty) or, with Add,
// a summary published.
type Access struct {
	Sum       summary.Summary
	Add, Scan bool
}

// Frame is the recording view of the summary database for one PUNCH
// invocation. It is used by that invocation's goroutine only, so its log
// takes no lock. Because the entailment cache and the per-procedure memo sit
// behind AnswerYes/AnswerNo (a memo hit still returns the answering
// summary), cache-served answers are logged at summary granularity too.
type Frame struct {
	punch.DB
	Log []Access
}

func (f *Frame) Add(s summary.Summary) {
	f.DB.Add(s)
	f.Log = append(f.Log, Access{Sum: s, Add: true})
}

func (f *Frame) AnswerYes(q summary.Question) (summary.Summary, bool) {
	s, ok := f.DB.AnswerYes(q)
	if ok {
		f.Log = append(f.Log, Access{Sum: s})
	}
	return s, ok
}

func (f *Frame) AnswerNo(q summary.Question) (summary.Summary, bool) {
	s, ok := f.DB.AnswerNo(q)
	if ok {
		f.Log = append(f.Log, Access{Sum: s})
	}
	return s, ok
}

func (f *Frame) Answer(q summary.Question) (summary.Summary, int) {
	s, v := f.DB.Answer(q)
	if v != 0 {
		f.Log = append(f.Log, Access{Sum: s})
	}
	return s, v
}

func (f *Frame) ForProc(proc string) []summary.Summary {
	f.Log = append(f.Log, Access{Sum: summary.Summary{Proc: proc}, Scan: true})
	return f.DB.ForProc(proc)
}

// sumKey is the identity of a summary within one run — the identity
// SUMDB dedups on, extended with the procedure. Formula ids are
// process-local: durable artifacts go through wire.SummaryKey instead.
type sumKey struct {
	kind      summary.Kind
	proc      string
	pre, post logic.ID
}

// formulaID is logic.KeyID made safe for the nil formulas scripted test
// punches leave in their summaries (no interned formula has id 0).
func formulaID(f logic.Formula) logic.ID {
	if f == nil {
		return 0
	}
	return logic.KeyID(f)
}

// sumRec accumulates one distinct summary's traffic across the run.
type sumRec struct {
	s       summary.Summary
	warm    bool
	written bool
	reads   int64
	readers map[string]bool // distinct reader procedures
}

// Fold is the tracer that folds one run's event stream into its
// provenance. A run emits from one goroutine at a time, and the fold
// belongs to that run alone, so it takes no lock.
type Fold struct {
	root   string
	procs  map[query.ID]string // every spawned query's procedure
	sums   map[sumKey]*sumRec
	deps   map[string]map[string]bool // proc -> procs it depends on (all edge kinds)
	spawns map[string]map[string]bool // proc -> child procs (spawn + coalesce edges)

	warmLoaded                                            int
	summaryReads, summaryWrites, procReads, coalesceReuse int64
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		procs:  map[query.ID]string{},
		sums:   map[sumKey]*sumRec{},
		deps:   map[string]map[string]bool{},
		spawns: map[string]map[string]bool{},
	}
}

// Event implements obs.Tracer. The root is the last query spawned
// without a parent: an incremental re-check's re-proofs are spawned
// before it.
func (f *Fold) Event(ev obs.Event) {
	switch ev.Type {
	case obs.EvSpawn:
		f.procs[ev.Query] = ev.Proc
		if ev.Parent == query.NoParent {
			f.root = ev.Proc
		} else {
			f.spawn(f.procs[ev.Parent], ev.Proc)
		}
	case obs.EvCoalesce:
		// A dependency satisfied by an in-flight twin: the same edge a
		// spawn would have produced, so cones stay schedule-invariant.
		f.spawn(f.procs[ev.Parent], ev.Proc)
		f.coalesceReuse++
	case obs.EvSumRead:
		f.edge(ev.Proc, ev.Sum.Proc)
		if ev.N != 0 {
			f.procReads++
			return
		}
		sr := f.sum(ev.Sum)
		sr.reads++
		sr.readers[ev.Proc] = true
		f.summaryReads++
	case obs.EvSumAdd:
		sr := f.sum(ev.Sum)
		if ev.Query == query.NoParent {
			if !sr.warm {
				sr.warm = true
				f.warmLoaded++
			}
			return
		}
		sr.written = true
		f.touch(ev.Sum.Proc)
		f.summaryWrites++
	}
}

// touch ensures proc has a node in the dependency graph.
func (f *Fold) touch(proc string) {
	if f.deps[proc] == nil {
		f.deps[proc] = map[string]bool{}
	}
}

// edge records proc -> dep in the dependency graph. Self-edges are
// dropped: whether a procedure consults its own summary is
// schedule-dependent (a coalesce hit on one schedule is a fresh read on
// another), and a p->p edge adds nothing to any invalidation cone — p is
// always in its own cone. Dropping them keeps StableBytes identical
// across engine schedules.
func (f *Fold) edge(proc, dep string) {
	f.touch(proc)
	f.touch(dep)
	if proc != dep {
		f.deps[proc][dep] = true
	}
}

// spawn records a parent→child procedure edge, in the dependency graph
// and among the spawn edges.
func (f *Fold) spawn(proc, child string) {
	f.edge(proc, child)
	if proc == child {
		return
	}
	if f.spawns[proc] == nil {
		f.spawns[proc] = map[string]bool{}
	}
	f.spawns[proc][child] = true
}

// sum returns (creating if needed) the record for a summary.
func (f *Fold) sum(s *summary.Summary) *sumRec {
	k := sumKey{s.Kind, s.Proc, formulaID(s.Pre), formulaID(s.Post)}
	sr := f.sums[k]
	if sr == nil {
		sr = &sumRec{s: *s, readers: map[string]bool{}}
		f.sums[k] = sr
	}
	return sr
}
