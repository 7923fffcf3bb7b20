// Package bolt is the public API of this reproduction of "Parallelizing
// Top-Down Interprocedural Analyses" (Albarghouthi, Kumar, Nori, Rajamani;
// PLDI 2012). It parses programs in a small imperative language and
// verifies reachability/safety questions with BOLT: a MapReduce-style
// parallel engine over demand-driven interprocedural queries,
// parameterized by an intraprocedural analysis (PUNCH) — a may-must
// (DASH-style) analysis by default, with pure may (SLAM/BLAST-style) and
// pure must (DART-style) instantiations available.
//
// Quickstart:
//
//	prog, err := bolt.Parse(src)
//	res := prog.Check(bolt.Options{Threads: 8})
//	fmt.Println(res.Verdict)
package bolt

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prov"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/must"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
	"repro/internal/witness"
)

// Program is a parsed, validated program.
type Program struct {
	prog *cfg.Program
}

// Parse parses a program in the input language. Assertions and aborts are
// compiled to the standard error-flag encoding checked by Check.
func Parse(src string) (*Program, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the program's control-flow graphs.
func (p *Program) String() string { return p.prog.String() }

// Dot renders the control-flow graphs in Graphviz DOT format.
func (p *Program) Dot() string { return p.prog.Dot() }

// Procedures returns the procedure names.
func (p *Program) Procedures() []string { return p.prog.ProcNames() }

// Main returns the entry procedure name.
func (p *Program) Main() string { return p.prog.Main }

// Analysis selects the PUNCH instantiation.
type Analysis int

// Available intraprocedural analyses.
const (
	// MayMust is the DASH/SYNERGY-style combination used in the paper's
	// evaluation (the default).
	MayMust Analysis = iota
	// May is the SLAM/BLAST-style abstraction-refinement analysis.
	May
	// Must is the DART/CUTE-style directed-testing analysis (finds bugs;
	// proves safety only for exhaustively explorable procedures).
	Must
)

func (a Analysis) String() string {
	switch a {
	case MayMust:
		return "may-must"
	case May:
		return "may"
	case Must:
		return "must"
	}
	return fmt.Sprintf("Analysis(%d)", int(a))
}

// Verdict is the outcome of a verification run: Unknown (resources
// exhausted before an answer was found), Safe (the error states are
// proven unreachable) or ErrorReachable (some execution reaches them).
type Verdict = core.Verdict

// Verdicts.
const (
	Unknown        = core.Unknown
	Safe           = core.Safe
	ErrorReachable = core.ErrorReachable
)

// StopReason explains why a run terminated. Every Result carries exactly
// one; an Unknown verdict always comes with the reason the engine gave
// up (budget, deadlock, cancellation, or — for the distributed
// simulation — total node failure).
type StopReason = core.StopReason

// Stop reasons; internal/core documents each.
const (
	StopNone          = core.StopNone
	StopRootAnswered  = core.StopRootAnswered
	StopWallTimeout   = core.StopWallTimeout
	StopTickBudget    = core.StopTickBudget
	StopEventBudget   = core.StopEventBudget
	StopDeadlocked    = core.StopDeadlocked
	StopCancelled     = core.StopCancelled
	StopNodeFailure   = core.StopNodeFailure
	StopVerdictReused = core.StopVerdictReused
)

// Options configure a verification run.
type Options struct {
	// Analysis selects the PUNCH instantiation (default MayMust).
	Analysis Analysis
	// Threads is the paper's throttle: Ready queries processed per MAP
	// stage and concurrent PUNCH instances. 1 = sequential. Default 1.
	Threads int
	// VirtualCores is the simulated core count of the deterministic
	// virtual clock. 0, or any value above Threads, means Threads: a MAP
	// stage never holds more queries than there are threads, so extra
	// cores would sit idle.
	VirtualCores int
	// MaxVirtualTicks bounds virtual time (0 = unbounded). An
	// incremental re-check that re-proves an edited procedure's interface
	// first gives the re-proofs and the root question this and Timeout
	// each in full.
	MaxVirtualTicks int64
	// Timeout bounds wall-clock time (0 = unbounded).
	Timeout time.Duration
	// Async selects the streaming work-stealing engine: persistent
	// workers, incremental REDUCE per completed query, and root-done
	// cancellation instead of bulk-synchronous MAP/REDUCE batches. Same
	// verdicts, lower wall-clock on straggler-heavy workloads.
	Async bool
	// StorePath, when set, names a directory holding the persistent
	// summary store (created on first use). The run warm-starts from its
	// contents and persists new summaries back, so a re-run of the same
	// program re-checks from yesterday's facts instead of from scratch.
	// The store is fingerprinted by program text, analysis, and wire
	// version; a store built for anything else is rejected (never
	// silently reused) — the run is aborted with Result.StoreErr set and
	// verdict Unknown.
	StorePath string
	// StoreReset explicitly discards and recreates a store whose
	// fingerprint does not match (the only sanctioned way to repurpose a
	// store directory).
	StoreReset bool
	// FindWitness, on an ErrorReachable verdict from Check, searches for a
	// concrete counterexample (inputs + trace) and attaches it to the
	// result.
	FindWitness bool
	// TraceTo, when set, records the run's query-lifecycle events and
	// converts them here to Chrome trace-event JSON when the run ends
	// (obs.WriteChrome): one track per worker, one span per PUNCH
	// invocation, loadable at ui.perfetto.dev or chrome://tracing.
	// Result.TraceSpans and Result.TraceErr report the outcome.
	TraceTo io.Writer
	// TraceJSONLTo, when set, streams the same events here as JSON Lines
	// (one event object per line) while the run executes — the format
	// internal/obs/analyze and cmd/boltprof consume. Both trace sinks may
	// be set at once. Result.TraceEvents counts the lines written;
	// flush errors surface in Result.TraceErr.
	TraceJSONLTo io.Writer
	// MetricsInto, when non-nil, is the live registry the run accumulates
	// into (implying CollectMetrics): the CLIs hand the same registry to
	// obs.StartDebugServer so /metrics scrapes observe the run in flight.
	// Nil means a private registry is used when CollectMetrics is set.
	MetricsInto *obs.Metrics
	// CollectMetrics enables the engine metrics registry; the snapshot is
	// attached to Result.Metrics and Result.WorkerMetrics. Off by default:
	// disabled instrumentation costs one branch per would-be observation.
	CollectMetrics bool
	// CollectProvenance records, per run, which summaries each PUNCH
	// invocation consumed and produced, and assembles them into the
	// verdict's dependency record (Result.Provenance): the procedure
	// cone the answer rests on, warm-vs-fresh read attribution, and the
	// invalidation cone of every procedure. Off by default. The record
	// is a fold over the run's event stream, so a run that collects it
	// is traced. With StorePath set, the verdict's procedure dependency
	// graph is also persisted beside the summaries.
	CollectProvenance bool
	// Incremental turns a store-backed run into an edit-aware re-check
	// (implies CollectProvenance; no effect without StorePath). The store
	// is opened under an edit-stable fingerprint (analysis + wire version,
	// no program text) and carries a manifest of per-procedure content
	// fingerprints. On each run the manifest diff yields the edited
	// procedures, their reverse dependency cone is invalidated
	// (tombstoned) in the store, and the rest of the summaries warm-start
	// the re-check. When the cone does not reach the question's procedure
	// the persisted verdict is reused outright (StopVerdictReused,
	// Result.ReusedVerdict).
	Incremental bool
	// PprofLabels wraps each PUNCH invocation in runtime/pprof labels
	// (engine, proc, query-depth), so CPU profiles break analysis time
	// down by procedure and tree depth.
	PprofLabels bool
	// Inspect, when non-nil, attaches the run to the inspector's live
	// probe: /debug/bolt/state (and the stall watchdog) can then sample
	// per-worker state, forest occupancy, coalescer, SUMDB and solver
	// gauges while the check is in flight. Nil costs one branch
	// per publish site.
	Inspect *Inspector
	// FlightRecorder, when non-nil, is teed into the run's event stream:
	// typically a bounded ring of the most recent lifecycle events
	// (obs.NewFlightRecorder), dumpable via /debug/bolt/flight or
	// boltcheck -flight-dump and cheap enough to leave on for whole runs;
	// a zero obs.Recording keeps every event.
	FlightRecorder *obs.Recording
}

// Result reports a verification run, on any engine: Check's, CheckReach's
// and CheckDistributed's alike.
type Result struct {
	Verdict Verdict
	// StopReason records why the run ended.
	StopReason   StopReason
	TotalQueries int64
	PeakReady    int
	Iterations   int
	VirtualTicks int64
	WallTime     time.Duration
	// CoalesceHits counts spawned children answered by an in-flight twin
	// query instead of growing a duplicate subtree.
	CoalesceHits int64
	// The simulated cluster's own counters, zero or nil after Check.
	// Rounds equals Iterations. PerNodePeakLive is each node's peak
	// live-query count (the memory-sharding payoff), PerNodeSummaries
	// each node's final summary count. SyncExchanges counts gossip
	// exchanges, DroppedDeliveries the deliveries injected loss deferred.
	// KilledNodes lists the nodes fault injection removed, in order;
	// ReroutedQueries counts the queries failover moved off them,
	// RecoveredSummaries the summaries its re-gossip delivered.
	Rounds             int
	PerNodePeakLive    []int
	PerNodeSummaries   []int
	SyncExchanges      int
	DroppedDeliveries  int
	KilledNodes        []int
	ReroutedQueries    int
	RecoveredSummaries int
	// Witness is a concrete counterexample (present only when the verdict
	// is ErrorReachable and Options.FindWitness was set, and the directed
	// search succeeded).
	Witness *Witness
	// Metrics is the flattened engine metrics snapshot (nil unless
	// metrics were collected): lifecycle counters, summary-database
	// traffic under sumdb_* keys, punch-histogram aggregates, and
	// makespan_ticks.
	Metrics map[string]int64
	// WorkerMetrics is the per-worker accounting behind Metrics;
	// utilization is BusyTicks / Metrics["makespan_ticks"]. On a cluster,
	// worker slot w of node n is worker n*ThreadsPerNode+w.
	WorkerMetrics []obs.WorkerSnapshot
	// TraceSpans is the number of completed PUNCH spans recorded when
	// TraceTo was set; TraceEvents the JSONL lines written when
	// TraceJSONLTo was set; TraceErr reports the first failed trace
	// write, if any.
	TraceSpans  int
	TraceEvents int64
	TraceErr    error
	// Solver is the run's QF_LIA solver accounting — always populated,
	// independent of metrics collection.
	Solver smt.Stats
	// WarmSummaries is the number of summaries loaded from the persistent
	// store before the run started (0 without a StorePath);
	// PersistedSummaries the number of new summaries written back when it
	// ended. StoreErr reports the first store failure: an open-time
	// fingerprint mismatch aborts the run (verdict Unknown), while
	// load/persist failures degrade to a cold run with the error recorded.
	WarmSummaries      int
	PersistedSummaries int
	StoreErr           error
	// Provenance is the verdict's dependency record (nil unless
	// CollectProvenance): read/write summary sets, the procedure
	// dependency graph, and per-procedure invalidation cones. The
	// procedure cone is schedule-invariant — identical across the
	// barrier, async, and distributed engines for the same question.
	Provenance *prov.Provenance
	// Incremental re-check accounting (populated only with Incremental
	// and a StorePath): the procedures whose content fingerprints changed
	// since the store's manifest, the stale summaries tombstoned from the
	// store (on a cluster PerNodeInvalidated routes them to their owning
	// nodes), the warm summaries that survived invalidation, and whether
	// the persisted verdict was reused without running the root question.
	// Cutoff reports the re-proof of an edited procedure's interface that
	// may stop the edit there: "held, N re-proofs, T ticks" or "fell back
	// (reason)"; empty when nothing edited reaches the root.
	EditedProcs          []string
	InvalidatedSummaries int
	SurvivingSummaries   int
	ReusedVerdict        bool
	PerNodeInvalidated   []int
	Cutoff               string
}

// Witness is a concrete failing execution.
type Witness struct {
	// Inputs are the nondeterministic values, in draw order.
	Inputs []int64
	// Text is the human-readable trace.
	Text string
}

func newPunch(a Analysis) punch.Punch {
	switch a {
	case May:
		return may.New()
	case Must:
		return must.New()
	default:
		return maymust.New()
	}
}

func (o Options) engine(prog *cfg.Program, tr obs.Tracer, m *obs.Metrics, st store.Store) *core.Engine {
	return core.New(prog, core.Options{
		Punch:             newPunch(o.Analysis),
		MaxThreads:        max(1, o.Threads),
		VirtualCores:      o.VirtualCores,
		MaxVirtualTicks:   o.MaxVirtualTicks,
		RealTimeout:       o.Timeout,
		Async:             o.Async,
		Store:             st,
		Tracer:            tr,
		Metrics:           m,
		CollectProvenance: o.CollectProvenance,
		Incremental:       o.Incremental,
		PprofLabels:       o.PprofLabels,
		Probe:             o.Inspect.Probe(),
	})
}

// cutoffReport renders an incremental re-check's cutoff, "" for none.
func cutoffReport(c *core.Cutoff) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// storeFingerprint identifies the (program, analysis, wire version)
// combination a persistent store was built for. Any change to the
// program text, the PUNCH instantiation, or the wire format produces a
// different fingerprint, and OpenDisk refuses to reuse the store.
func (p *Program) storeFingerprint(a Analysis) store.Fingerprint {
	return store.NewFingerprint(
		"bolt/summary-store",
		strconv.Itoa(wire.Version),
		a.String(),
		p.prog.String(),
	)
}

// incrFingerprint identifies an incremental store. Deliberately free of
// program text: the whole point of an incremental store is surviving
// program edits, so validity is enforced by the per-procedure manifest
// diff (stale cones are tombstoned) rather than by a whole-text
// fingerprint that would reject the store after every edit.
func incrFingerprint(a Analysis) store.Fingerprint {
	return store.NewFingerprint(
		"bolt/incr-store",
		strconv.Itoa(wire.Version),
		a.String(),
	)
}

// openStore opens the persistent summary store named by dir, or returns
// (nil, nil) when dir is empty (no store configured). Incremental runs
// use the edit-stable fingerprint; only the other kind renders the
// program text.
func (p *Program) openStore(dir string, a Analysis, reset, incremental bool) (store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	if incremental {
		return store.OpenDisk(dir, incrFingerprint(a), reset)
	}
	return store.OpenDisk(dir, p.storeFingerprint(a), reset)
}

// closeStore folds the store's Close error into the result's StoreErr
// (first error wins — an earlier load/persist failure is more
// informative than a failed close).
func closeStore(st store.Store, errp *error) {
	if st == nil {
		return
	}
	if err := st.Close(); err != nil && *errp == nil {
		*errp = err
	}
}

// hooks builds the run's tracers and registry from the options: TraceTo
// records into a Recording that end converts to Chrome JSON. The Tracer
// return is a nil interface (not a typed nil) when tracing is off, so
// the engines' single `!= nil` guard stays correct.
func (o Options) hooks() (*obs.Recording, *obs.JSONLTracer, obs.Tracer, *obs.Metrics) {
	var rec *obs.Recording
	var tr obs.Tracer
	if o.TraceTo != nil {
		rec = &obs.Recording{}
		tr = rec
	}
	var jt *obs.JSONLTracer
	if o.TraceJSONLTo != nil {
		jt = obs.NewJSONLTracer(o.TraceJSONLTo)
		tr = obs.Tee(tr, jt)
	}
	// The guard matters: teeing a typed-nil *Recording would yield a
	// non-nil Tracer interface and defeat the engines' nil check.
	if o.FlightRecorder != nil {
		tr = obs.Tee(tr, o.FlightRecorder)
	}
	m := o.MetricsInto
	if m == nil && o.CollectMetrics {
		m = obs.NewMetrics()
	}
	return rec, jt, tr, m
}

// session is what every entry point sets up around one engine run: the
// opened summary store and the observability hooks.
type session struct {
	st      store.Store
	rec     *obs.Recording
	jt      *obs.JSONLTracer
	tr      obs.Tracer
	m       *obs.Metrics
	traceTo io.Writer
}

// begin opens the store and builds the hooks o asks for.
func (p *Program) begin(a Analysis, o Options) (*session, error) {
	st, err := p.openStore(o.StorePath, a, o.StoreReset, o.Incremental)
	if err != nil {
		return nil, err
	}
	s := &session{st: st, traceTo: o.TraceTo}
	s.rec, s.jt, s.tr, s.m = o.hooks()
	return s, nil
}

// end closes the store and turns the engine's result into the facade's,
// with what the session left behind: the close error (unless an earlier
// store error stands), the flattened metrics snapshot and the serialized
// traces.
func (s *session) end(r core.Result) Result {
	res := toResult(r)
	closeStore(s.st, &res.StoreErr)
	res.Metrics = r.Metrics.Flatten()
	if r.Metrics != nil {
		res.WorkerMetrics = r.Metrics.Workers
	}
	if s.rec != nil {
		res.TraceSpans, res.TraceErr = obs.WriteChrome(s.traceTo, s.rec.Events())
	}
	if s.jt != nil {
		if err := s.jt.Flush(); err != nil && res.TraceErr == nil {
			res.TraceErr = err
		}
		res.TraceEvents = s.jt.Events()
	}
	return res
}

func toResult(r core.Result) Result {
	return Result{
		Verdict:      r.Verdict,
		StopReason:   r.StopReason,
		TotalQueries: r.TotalQueries,
		PeakReady:    r.PeakReady,
		Iterations:   r.Iterations,
		VirtualTicks: r.VirtualTicks,
		WallTime:     r.WallTime,
		CoalesceHits: r.CoalesceHits,
		Solver:       r.Solver,

		Rounds:             r.Rounds,
		PerNodePeakLive:    r.PerNodePeakLive,
		PerNodeSummaries:   r.PerNodeSummaries,
		SyncExchanges:      r.SyncExchanges,
		DroppedDeliveries:  r.DroppedDeliveries,
		KilledNodes:        r.KilledNodes,
		ReroutedQueries:    r.ReroutedQueries,
		RecoveredSummaries: r.RecoveredSummaries,

		WarmSummaries:      r.WarmSummaries,
		PersistedSummaries: r.PersistedSummaries,
		StoreErr:           r.StoreErr,
		Provenance:         r.Provenance,

		EditedProcs:          r.EditedProcs,
		InvalidatedSummaries: r.InvalidatedSummaries,
		SurvivingSummaries:   r.SurvivingSummaries,
		ReusedVerdict:        r.ReusedVerdict,
		PerNodeInvalidated:   r.PerNodeInvalidated,
		Cutoff:               cutoffReport(r.Cutoff),
	}
}

// Check verifies the program's assertions: can main reach its exit with
// the error flag raised?
func (p *Program) Check(opts Options) Result {
	return p.CheckContext(context.Background(), opts)
}

// CheckContext is Check with external cancellation: cancelling ctx stops
// the run at the next scheduling boundary with StopReason StopCancelled
// and all workers joined.
func (p *Program) CheckContext(ctx context.Context, opts Options) Result {
	res, err := p.check(ctx, core.AssertionQuestion(p.prog), opts)
	if err != nil {
		return Result{Verdict: Unknown, StoreErr: err}
	}
	if res.Verdict == ErrorReachable && opts.FindWitness {
		if tr, ok := witness.Find(p.prog, witness.Options{}); ok {
			res.Witness = &Witness{Inputs: tr.Havocs, Text: tr.Format()}
		}
	}
	return res
}

// check answers q on a shared-memory engine; the error is the store's
// refusal to open.
func (p *Program) check(ctx context.Context, q summary.Question, opts Options) (Result, error) {
	s, err := p.begin(opts.Analysis, opts)
	if err != nil {
		return Result{}, err
	}
	return s.end(opts.engine(p.prog, s.tr, s.m, s.st).RunContext(ctx, q)), nil
}

// CheckReach answers a general reachability question: can procedure proc,
// started in a state satisfying pre (a boolean expression over globals),
// reach its exit in a state satisfying post? A Safe verdict means post is
// unreachable; ErrorReachable means some execution reaches it.
func (p *Program) CheckReach(proc, pre, post string, opts Options) (Result, error) {
	return p.CheckReachContext(context.Background(), proc, pre, post, opts)
}

// CheckReachContext is CheckReach with external cancellation.
func (p *Program) CheckReachContext(ctx context.Context, proc, pre, post string, opts Options) (Result, error) {
	if p.prog.Proc(proc) == nil {
		return Result{}, fmt.Errorf("bolt: no procedure %q", proc)
	}
	preB, err := parser.ParseBoolExpr(pre)
	if err != nil {
		return Result{}, fmt.Errorf("bolt: precondition: %w", err)
	}
	postB, err := parser.ParseBoolExpr(post)
	if err != nil {
		return Result{}, fmt.Errorf("bolt: postcondition: %w", err)
	}
	q := summary.Question{Proc: proc, Pre: logic.FromBool(preB), Post: logic.FromBool(postB)}
	res, err := p.check(ctx, q, opts)
	if err != nil {
		return Result{}, fmt.Errorf("bolt: summary store: %w", err)
	}
	return res, nil
}

// DistOptions configure a simulated-cluster verification run (the §7
// distributed design).
type DistOptions struct {
	// Analysis selects the PUNCH instantiation (default MayMust).
	Analysis Analysis
	// Nodes is the cluster size (default 2).
	Nodes int
	// ThreadsPerNode is each node's MAP-stage throttle (default 4).
	ThreadsPerNode int
	// MaxRounds bounds the simulation (0 = default). Like Timeout, it
	// bounds an incremental re-check's re-proofs and its root question
	// each in full.
	MaxRounds int
	// Timeout bounds wall-clock time (0 = unbounded).
	Timeout time.Duration
	// Faults is a fault-injection spec "kill=N@R,drop=P,seed=S"; every
	// clause is optional and an empty spec injects nothing. See
	// core.ParseFaults for the grammar.
	Faults string
	// StorePath and StoreReset mirror Options: a persistent summary store
	// the cluster warm-starts from (summaries routed to their owning
	// nodes) and persists its union of node databases back into.
	StorePath  string
	StoreReset bool
	// Incremental mirrors Options.Incremental: edit-aware re-checks over
	// an edit-stable store, with stale-cone invalidation routed to each
	// summary's owning node (Result.PerNodeInvalidated).
	Incremental bool
	// TraceTo, TraceJSONLTo, CollectMetrics, MetricsInto and PprofLabels
	// mirror Options: Chrome trace-event output (one process per node,
	// one track per node-local worker slot), the streaming JSONL event
	// sink, the metrics registry, and pprof labels around PUNCH.
	TraceTo        io.Writer
	TraceJSONLTo   io.Writer
	CollectMetrics bool
	MetricsInto    *obs.Metrics
	PprofLabels    bool
	// CollectProvenance mirrors Options.CollectProvenance: the verdict's
	// dependency record lands in Result.Provenance.
	CollectProvenance bool
	// Inspect and FlightRecorder mirror Options: the live-introspection
	// probe (per-node occupancy, skew and gossip backlog on top of the
	// shared gauges) and the bounded ring of recent lifecycle events.
	Inspect        *Inspector
	FlightRecorder *obs.Recording
}

// CheckDistributed verifies the program's assertions on the simulated
// cluster, optionally under an injected fault plan. Verdicts match Check;
// the result additionally reports the cluster's per-node memory peaks and
// fault-recovery accounting.
func (p *Program) CheckDistributed(ctx context.Context, opts DistOptions) (Result, error) {
	faults, err := core.ParseFaults(opts.Faults)
	if err != nil {
		return Result{}, fmt.Errorf("bolt: %w", err)
	}
	s, err := p.begin(opts.Analysis, Options{
		StorePath:      opts.StorePath,
		StoreReset:     opts.StoreReset,
		Incremental:    opts.Incremental,
		TraceTo:        opts.TraceTo,
		TraceJSONLTo:   opts.TraceJSONLTo,
		CollectMetrics: opts.CollectMetrics,
		MetricsInto:    opts.MetricsInto,
		FlightRecorder: opts.FlightRecorder,
	})
	if err != nil {
		return Result{}, fmt.Errorf("bolt: summary store: %w", err)
	}
	eng := core.NewDistributed(p.prog, core.DistOptions{
		Punch:             newPunch(opts.Analysis),
		Nodes:             opts.Nodes,
		ThreadsPerNode:    opts.ThreadsPerNode,
		MaxRounds:         opts.MaxRounds,
		RealTimeout:       opts.Timeout,
		Faults:            faults,
		Store:             s.st,
		Tracer:            s.tr,
		Metrics:           s.m,
		CollectProvenance: opts.CollectProvenance,
		Incremental:       opts.Incremental,
		PprofLabels:       opts.PprofLabels,
		Probe:             opts.Inspect.Probe(),
	})
	return s.end(eng.RunContext(ctx, core.AssertionQuestion(p.prog))), nil
}
