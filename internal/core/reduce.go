// One REDUCE under two schedulers. Fig. 4 of the paper has a single
// REDUCE stage parameterised by PUNCH; the reducer is that stage plus what
// every run shares whoever schedules it: set-up (incremental prep, SUMDB,
// store hydration, probe, the re-proof of an edited procedure's
// interface, root spawn), the PUNCH call wrapper, and tear-down (store
// persist, provenance, metrics). The batch loop
// (engine.go), which the barrier engine runs over one node and the
// cluster simulation (distributed.go) over many, and the streaming pool
// (async.go) only decide which query runs when, and schedule what apply
// and retire hand back; DESIGN.md §3.6 has the contract.
//
// REDUCE is two-phase on purpose. apply folds one PUNCH result into the
// forest (replace the query, insert or coalesce its children); retire
// fans a Done query's answer out (wake parent and waiters) and collects
// its subtree. A batch scheduler must apply every result before it
// retires any: a child of result j may coalesce onto the Done twin i of
// the same batch, and finds it only while i is still in the forest.
// Retiring i first would spawn that child as a fresh query and move
// ticks and query counts.
//
// The reducer does no locking: the batch loop calls it from its own
// goroutine between MAP stages, the streaming pool under asyncState.mu.
// Only step runs on MAP goroutines.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cfg"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/wire"
)

// reducer is one verification run's shared state.
type reducer struct {
	prog *cfg.Program
	// o is the run's configuration; the cluster engine maps its
	// DistOptions onto the same struct. The batch loop's own settings
	// (threads and cores per node, round bound, gossip, faults) are its
	// rounds value, not part of the reducer.
	o Options
	// engine labels live state, pprof samples and persisted provenance:
	// "barrier" (the batch loop over one node), "async" (the streaming
	// pool) or "dist" (the batch loop over a cluster).
	engine string
	q0     summary.Question
	start  time.Time
	// phase is where the current budget phase began: its wall clock,
	// virtual clock and scheduling step (res.Iterations counts the run's
	// steps). An incremental re-check's re-proofs are one phase and its
	// root question the next, so the root gets every budget in full as a
	// re-check without the re-proofs would (exhausted and the schedulers'
	// step bounds read it).
	phase struct {
		start time.Time
		vtime int64
		steps int
	}

	solver *smt.Solver
	alloc  *query.Allocator
	// forest is one tree for the shared-memory engines, one per node for
	// the cluster; dbs and pctx are indexed alike. home routes a procedure
	// to the tree owning its queries and summaries (nil: the only tree).
	// width is the worker slots per tree: node*width+worker is a worker's
	// global metrics index.
	forest []*query.Tree
	dbs    []*summary.DB
	pctx   []punch.Context
	home   func(proc string) int
	width  int

	// fold folds the event stream into provenance (nil unless
	// CollectProvenance).
	fold *prov.Fold
	// warmed holds the summaries loaded from the store, for askRoot to
	// announce (nil without provenance).
	warmed []*summary.Summary
	in     instr
	// depth is each live query's distance from the root, maintained only
	// when pprof labels or a tracer are on (a spawn event carries it).
	depth map[query.ID]int
	// nodes holds the per-node gauges that are not events — gossip
	// backlog and cumulative MAP makespan — for a run over more than one
	// node with a probe attached (nil otherwise); publish fills in the
	// rest.
	nodes []obs.NodeState

	root query.ID
	// vtime is the virtual clock every event is stamped with; the
	// scheduler advances it.
	vtime int64
	// running holds the queries inside PUNCH right now, rewake those among
	// them whose child completed mid-flight: such a query is made Ready
	// again at once if it returns Blocked, so the wake-up is never lost.
	// Only the streaming scheduler fills running (nothing runs during the
	// batch loop's REDUCE), so both stay nil elsewhere.
	running map[query.ID]bool
	rewake  map[query.ID]bool

	// created counts queries added to the forest, collected those removed
	// from it, done the Done results applied.
	created, collected, done int64
	// peak is each tree's largest live-query count, invalidatedAt its
	// share of an incremental re-check's discarded summaries (nil unless
	// one was planned).
	peak, invalidatedAt []int
	// prep is an incremental re-check's plan (nil on any other run). When
	// it tries the cutoff, cutting is set, reproof holds the edited
	// procedure's interface questions and kept the not-may summaries of
	// its callers, held back from SUMDB until the re-proofs are in
	// (incr.go).
	prep    *incrPrep
	cutting bool
	reproof []summary.Question
	kept    []summary.Summary
	// woken is the scratch apply and retire return their runnable queries
	// in, valid until the next call of either; costs is advance's.
	woken []*query.Query
	costs []int64

	res Result
}

// newReducer prepares a run over a forest of trees, with width worker
// slots each. Nothing is built until begin.
func newReducer(prog *cfg.Program, o Options, engine string, trees, width int, home func(string) int) *reducer {
	return &reducer{prog: prog, o: o, engine: engine, width: width, home: home,
		forest: make([]*query.Tree, trees), peak: make([]int, trees)}
}

// route returns the tree that owns proc.
func (r *reducer) route(proc string) int {
	if r.home == nil {
		return 0
	}
	return r.home(proc)
}

// find returns the live query with the given ID and the tree holding it.
func (r *reducer) find(id query.ID) (int, *query.Query) {
	for i, t := range r.forest {
		if q := t.Get(id); q != nil {
			return i, q
		}
	}
	return 0, nil
}

// note emits a lifecycle event about q at the current virtual time. The
// nil-tracer check comes before any Event is built.
func (r *reducer) note(t obs.EventType, node, worker int, q *query.Query, n int64) {
	if r.in.tr == nil {
		return
	}
	ev := obs.Event{Type: t, Query: q.ID, Proc: q.Q.Proc, Node: node, Worker: worker, VTime: r.vtime, N: n}
	if t == obs.EvSpawn || t == obs.EvCoalesce {
		ev.Parent = q.Parent
	}
	r.in.emit(ev)
}

// run is one verification run of q0 under schedule: set-up; when an
// incremental re-check may stop an edit at the edited procedure, the
// re-proof of that procedure's interface (reprove); the root question,
// unless the verdict on file stands; tear-down.
func (r *reducer) run(ctx context.Context, q0 summary.Question, schedule func(context.Context, *reducer)) {
	if !r.begin(q0) {
		return
	}
	if !r.cutting || !r.reprove(ctx, schedule) {
		schedule(ctx, r)
	}
	r.end()
}

// begin sets the run up and reports whether there is anything to
// schedule: false means an incremental re-check reused the persisted
// verdict and r.res is final. The reuse decision comes first, so a
// re-check answered from the store builds no solver, SUMDB or tree. From
// begin to end the run holds the formula intern table (logic.BeginRun).
func (r *reducer) begin(q0 summary.Question) bool {
	logic.BeginRun()
	r.start = time.Now()
	r.phase.start = r.start
	r.q0 = q0
	r.res = Result{Verdict: Unknown}
	o, res := &r.o, &r.res
	stored := o.Store != nil

	if o.Incremental && stored {
		r.prep = prepareIncr(r.prog, o.Store, q0)
		res.EditedProcs = r.prep.edited
		r.invalidated()
		if r.prep.reuse {
			res.Verdict = r.prep.verdict
			res.ReusedVerdict = true
			res.SurvivingSummaries = r.prep.surviving
			res.setStop(StopVerdictReused)
			res.WallTime = time.Since(r.start)
			logic.EndRun()
			return false
		}
		if r.prep.why != "" {
			res.Cutoff = &Cutoff{Reason: r.prep.why}
			if len(r.prep.edited) == 1 {
				res.Cutoff.Proc = r.prep.edited[0]
			}
		}
	}

	r.solver = smt.New()
	r.solver.EnableEntailmentCache()
	r.alloc = &query.Allocator{}
	modref := r.prog.ModRef()
	if r.prep != nil && r.prep.modref != nil {
		modref = r.prep.modref
	}
	r.dbs = make([]*summary.DB, len(r.forest))
	r.pctx = make([]punch.Context, len(r.forest))
	for i := range r.forest {
		r.dbs[i] = summary.New(r.solver)
		r.forest[i] = query.NewTree()
		r.pctx[i] = punch.Context{Prog: r.prog, DB: r.dbs[i], Alloc: r.alloc, ModRef: modref, Shelf: &punch.Shelf{}}
	}
	if o.CollectProvenance {
		r.fold = prov.NewFold()
	}

	// Warm start: every summary the store holds is a sound fact about
	// this program (the store's fingerprint pinned the corpus), so seeding
	// its owner's SUMDB lets PUNCH answer questions a cold run would
	// re-derive. A load failure degrades to a cold run. A re-check that
	// tries the cutoff holds the stale cone's summaries back: the edited
	// procedure's not-may summaries become its interface questions, its
	// callers' wait in kept, the cone's must summaries are dropped.
	if stored {
		sums, err := o.Store.Load()
		if err != nil {
			res.StoreErr = err
			sums = nil
		}
		cut := ""
		var cone map[string]bool
		if p := r.prep; p != nil && p.cut != "" {
			cut, cone = p.cut, make(map[string]bool, len(p.stale))
			for _, proc := range p.stale {
				cone[proc] = true
			}
		}
		var iface []summary.Summary
		for i, s := range sums {
			switch {
			case !cone[s.Proc]:
				r.warm(&sums[i])
			case s.Kind != summary.NotMay:
			case s.Proc == cut:
				iface = append(iface, s)
			default:
				r.kept = append(r.kept, s)
			}
		}
		if cut != "" {
			res.Cutoff = &Cutoff{Proc: cut}
			r.cutting, r.reproof = true, interfaceQuestions(cut, iface)
			if err != nil {
				// Nothing is known of what the store holds: no cutoff.
				res.Cutoff.Reason = "the store did not load"
				r.cutting, r.reproof, r.kept = false, nil, nil
				r.prep.commit(nil)
				r.invalidated()
			}
		}
	}
	if o.Incremental {
		res.SurvivingSummaries = res.WarmSummaries
	}

	var ls *obs.LiveState
	if o.Probe != nil {
		if r.home != nil {
			r.nodes = make([]obs.NodeState, len(r.forest))
		}
		ls = obs.NewLiveState(r.engine, len(r.forest)*r.width, len(r.nodes), r.start)
	}
	r.in = newInstr(o.Tracer, r.fold, o.Metrics, ls, len(r.forest), r.width, r.start, o.PprofLabels)
	if ls != nil {
		attachProbe(o.Probe, ls, r.dbs, r.solver)
		r.publish(0, 0)
	}
	if r.in.labels || r.in.tr != nil {
		r.depth = map[query.ID]int{}
	}
	if !r.cutting {
		r.askRoot()
	}
	return true
}

// warm seeds s, loaded from the store, into its owner's SUMDB. With
// provenance on, askRoot announces it as an add with no query: a run
// that reuses its verdict asks no root and leaves no events.
func (r *reducer) warm(s *summary.Summary) {
	r.dbs[r.route(s.Proc)].Add(*s)
	if r.fold != nil {
		r.warmed = append(r.warmed, s)
	}
	r.res.WarmSummaries++
}

// invalidated routes the incremental plan's discarded summaries to the
// trees that own them.
func (r *reducer) invalidated() {
	r.res.InvalidatedSummaries = r.prep.invalidated
	if r.res.StoreErr == nil {
		r.res.StoreErr = r.prep.err
	}
	r.invalidatedAt = make([]int, len(r.forest))
	for proc, n := range r.prep.perProc {
		r.invalidatedAt[r.route(proc)] += n
	}
}

// reprove asks the edited procedure's interface questions, one after the
// other, on the run's own solver and SUMDB, each as a root of its own
// that schedule runs to an answer, and then writes the invalidation. If
// every answer is not-may the cutoff held: only the edited procedure was
// stale, and the callers' not-may summaries go back into SUMDB and,
// after the tombstones, into the store. A procedure with no not-may
// summary on file has no interface to re-prove, and holds at once.
// Otherwise the whole cone is invalidated; what the re-proofs found
// stays in SUMDB, sound for the new program. reprove reports whether the
// verdict on file stands: the cutoff held, the newest record of the root
// question says Safe and SUMDB answers that question no. Unless it does
// it spawns the root question for schedule to answer.
func (r *reducer) reprove(ctx context.Context, schedule func(context.Context, *reducer)) bool {
	c, res, p := r.res.Cutoff, &r.res, r.prep
	start := r.vtime
	c.Held = true
	for _, q := range r.reproof {
		r.spawnRoot(q)
		schedule(ctx, r)
		c.Reproofs++
		v := res.Verdict
		r.dropRoot()
		if v != Safe {
			c.Held, c.Reason = false, "a re-proof ended "+v.String()
			break
		}
	}
	c.Ticks = r.vtime - start
	r.phase.start, r.phase.vtime, r.phase.steps = time.Now(), r.vtime, r.res.Iterations
	if !c.Held {
		r.kept = nil
		p.commit(nil)
		r.invalidated()
		r.askRoot()
		return false
	}
	for i := range r.kept {
		r.warm(&r.kept[i])
	}
	res.SurvivingSummaries = res.WarmSummaries
	_, no := r.dbs[r.route(r.q0.Proc)].AnswerNo(r.q0)
	stands := p.standing && no
	// Of the verdicts on file in the cone only the root question's may
	// stand, and only when SUMDB proves it again. Another question's Safe
	// verdict may rest on a fact of p that the store no longer holds — a
	// crash can cut the re-put of p's re-proved summaries short — and so
	// was never re-proved for this body.
	p.commit(func(i int) bool {
		return stands && p.recs[i].RootKey == p.rootKey
	}, r.kept...)
	r.invalidated()
	if p.err == nil {
		// The re-proved and the kept summaries follow the tombstones.
		r.persistStore(r.summaries())
	}
	if p.err != nil || !stands {
		r.askRoot()
		return false
	}
	res.Verdict, res.RootOutcome = Safe, query.Unreachable
	res.ReusedVerdict = true
	res.setStop(StopVerdictReused)
	return true
}

// askRoot announces the warm summaries and spawns the run's root
// question.
func (r *reducer) askRoot() {
	for _, s := range r.warmed {
		r.in.emit(obs.Event{Type: obs.EvSumAdd, Query: query.NoParent, Proc: s.Proc, Sum: s})
	}
	r.spawnRoot(r.q0)
}

// spawnRoot adds q as the root the scheduler runs next.
func (r *reducer) spawnRoot(q summary.Question) {
	root := r.alloc.New(query.NoParent, q)
	r.root = root.ID
	at := r.route(q.Proc)
	r.forest[at].Add(root)
	r.created++
	if r.depth != nil {
		r.depth[root.ID] = 0
	}
	r.note(obs.EvSpawn, at, 0, root, 0)
}

// dropRoot ends a re-proof: its answer is in SUMDB, so what is left of
// its forest is collected and the result's verdict and stop reason are
// cleared for the next root.
func (r *reducer) dropRoot() {
	for i, t := range r.forest {
		r.collected += int64(t.Len())
		r.forest[i] = query.NewTree()
	}
	clear(r.depth)
	res := &r.res
	res.Verdict, res.RootOutcome = Unknown, query.Outcome(0)
	res.StopReason = StopNone
}

// exhausted names the budget that stops the run before its next
// scheduling step — cancellation, or the phase's wall clock or virtual
// ticks — or StopNone. The iteration, event or round budget is the
// scheduler's own, counted from r.phase.steps.
func (r *reducer) exhausted(ctx context.Context) StopReason {
	switch {
	case ctx.Err() != nil:
		return StopCancelled
	case r.o.RealTimeout > 0 && time.Since(r.phase.start) > r.o.RealTimeout:
		return StopWallTimeout
	case r.o.MaxVirtualTicks > 0 && r.vtime-r.phase.vtime >= r.o.MaxVirtualTicks:
		return StopTickBudget
	}
	return StopNone
}

// punchStart marks q as entering PUNCH on the given worker.
func (r *reducer) punchStart(node, worker int, q *query.Query) {
	r.note(obs.EvPunchStart, node, worker, q, 0)
}

// step is the one PUNCH call site: it runs the analysis on q against its
// tree's SUMDB — through a recording frame when provenance is on, under
// pprof labels when asked — and returns the result with the wall time
// spent (zero when nothing traces the run) and the frame's log of SUMDB
// traffic (nil without provenance). depth is q's distance from the
// root, read by the caller while the depth map is quiescent.
func (r *reducer) step(ctx context.Context, node int, q *query.Query, depth int) (punch.Result, time.Duration, []prov.Access) {
	var t0 time.Time
	if r.in.tr != nil {
		t0 = time.Now()
	}
	pctx := &r.pctx[node]
	var frame *prov.Frame
	if r.fold != nil {
		frame = &prov.Frame{DB: r.dbs[node]}
		ic := *pctx
		ic.DB = frame
		pctx = &ic
	}
	var res punch.Result
	if r.in.labels {
		obs.DoPunch(ctx, r.engine, q.Q.Proc, depth, func() {
			res = r.o.Punch.Step(pctx, q)
		})
	} else {
		res = r.o.Punch.Step(pctx, q)
	}
	var wall time.Duration
	if r.in.tr != nil {
		wall = time.Since(t0)
	}
	if frame == nil {
		return res, wall, nil
	}
	return res, wall, frame.Log
}

// punchEnd closes what punchStart opened: the event carries the
// invocation's abstract cost and its wall time in N. The invocation's
// SUMDB traffic, log, follows it as summary events.
func (r *reducer) punchEnd(node, worker int, q *query.Query, cost int64, wall time.Duration, log []prov.Access) {
	if r.in.tr == nil {
		return
	}
	ev := obs.Event{Type: obs.EvPunchEnd, Query: q.ID, Proc: q.Q.Proc, Node: node, Worker: worker, VTime: r.vtime, Cost: cost, N: int64(wall)}
	r.in.emit(ev)
	ev.Cost = 0
	for i := range log {
		a := &log[i]
		ev.Type, ev.Sum, ev.N = obs.EvSumRead, &a.Sum, 0
		switch {
		case a.Add:
			ev.Type = obs.EvSumAdd
		case a.Scan:
			ev.N = 1
		}
		r.in.emit(ev)
	}
}

// apply folds the result of running q (which lives in forest[node]) into
// the forest — REDUCE's first phase — and returns the queries it made
// runnable: the children it inserted, then the query itself when it came
// back Ready or must look at SUMDB again. A result whose query was
// collected while it ran (its parent finished first) is obsolete: the
// scheduler has charged its cost to the clock (real cycles were spent),
// and nothing else of it is kept.
func (r *reducer) apply(node, worker int, q *query.Query, res punch.Result) []*query.Query {
	if r.o.CheckContract {
		if err := punch.CheckContract(q, res); err != nil {
			panic(err)
		}
	}
	self := res.Self
	// again marks that an answer self waits for may have landed while it
	// ran: a child completed mid-flight (rewake), or a spawn below
	// coalesces onto a Done twin whose summary is in SUMDB already. If
	// self comes back Blocked it must re-run at once.
	again := r.rewake[self.ID]
	delete(r.rewake, self.ID)
	r.woken = r.woken[:0]
	tree := r.forest[node]
	if tree.Get(self.ID) == nil {
		return nil
	}
	tree.Replace(self)
	if self.State != query.Done {
		for _, c := range res.Children {
			dst := r.route(c.Q.Proc)
			if r.coalesce(dst, worker, self, c, &again) {
				continue
			}
			r.forest[dst].Add(c)
			r.created++
			r.woken = append(r.woken, c)
			if r.depth != nil {
				r.depth[c.ID] = r.depth[self.ID] + 1
			}
			r.note(obs.EvSpawn, dst, worker, c, int64(r.depth[c.ID]))
		}
	}
	// The true live peak is reached here, before retire collects Done
	// subtrees.
	for i, t := range r.forest {
		if l := t.Len(); l > r.peak[i] {
			r.peak[i] = l
		}
	}

	switch self.State {
	case query.Done:
		r.done++
		r.note(obs.EvDone, node, worker, self, 0)
	case query.Ready:
		// Budget slice exhausted: more work to do, go around again.
		r.woken = append(r.woken, self)
		r.note(obs.EvReady, node, worker, self, 0)
	case query.Blocked:
		r.note(obs.EvBlock, node, worker, self, 0)
		if again {
			// N marks the rewake.
			tree.SetState(self.ID, query.Ready)
			r.woken = append(r.woken, self)
			r.note(obs.EvWake, node, worker, self, 1)
		}
	}
	return r.woken
}

// coalesce tries to answer child c of parent with the in-flight twin
// asking the same question instead of growing a duplicate subtree, and
// reports whether it did. Procedure routing is deterministic, so a twin
// lives in dst, the tree c would be added to. A Done twin has published
// its summary (PUNCH contract): the duplicate is dropped and *again set.
// A live twin adopts parent as one more waiter unless that would close a
// waits-for cycle. A twin inside PUNCH is never read: running queries
// mutate their State in place.
func (r *reducer) coalesce(dst, worker int, parent, c *query.Query, again *bool) bool {
	tree := r.forest[dst]
	twinID, ok := tree.Inflight(c.Q.Key())
	if !ok {
		return false
	}
	twin := tree.Get(twinID)
	if twin == nil {
		return false
	}
	if !r.running[twinID] && twin.State == query.Done {
		*again = true
	} else if query.WouldCycle(r.forest, twinID, parent.ID) {
		return false
	} else {
		tree.AddWaiter(twinID, parent.ID)
	}
	r.res.CoalesceHits++
	r.note(obs.EvCoalesce, dst, worker, c, int64(twinID))
	return true
}

// answered reports whether self is the root, Done, and records the
// verdict if so. Schedulers call it between apply and retire: the root's
// outcome is read before its subtree is collected.
func (r *reducer) answered(self *query.Query) bool {
	if self.ID != r.root || self.State != query.Done {
		return false
	}
	r.res.RootOutcome = self.Outcome
	switch self.Outcome {
	case query.Reachable:
		r.res.Verdict = ErrorReachable
	case query.Unreachable:
		r.res.Verdict = Safe
	}
	return true
}

// retire is REDUCE's second phase for a Done query living in
// forest[node]: the one summary it published answers its parent and every
// coalesced waiter, wherever in the forest they live, so all are woken;
// the waiter edges are cleared (restoring the GC condition "no waiters
// remain") and the subtree is collected. It returns the queries it made
// runnable. A query already collected — by an earlier retire of the same
// batch, or while it ran — has nothing left to retire.
func (r *reducer) retire(node, worker int, done *query.Query) []*query.Query {
	r.woken = r.woken[:0]
	tree := r.forest[node]
	if tree.Get(done.ID) == nil {
		return nil
	}
	if done.Parent != query.NoParent {
		r.wake(worker, done.Parent)
	}
	for _, w := range tree.Waiters(done.ID) {
		r.wake(worker, w)
	}
	tree.ClearWaiters(done.ID)
	// A tree severs the waiter edges of what it removes, but only its own:
	// in a forest the other trees must forget the collected queries too, or
	// their edges would name queries that no longer exist and pin branches
	// nobody waits for.
	var dying []query.ID
	if len(r.forest) > 1 {
		dying = tree.Descendants(done.ID)
	}
	removed := tree.RemoveSubtree(done.ID)
	for _, id := range dying {
		if tree.Get(id) != nil {
			continue
		}
		for _, t := range r.forest {
			if t != tree {
				t.Forget(id)
			}
		}
	}
	r.collected += int64(removed)
	r.note(obs.EvGC, node, worker, done, int64(removed))
	if r.o.CheckContract {
		r.checkInvariants()
	}
	return r.woken
}

// slot is one MAP slot of a round of the batch loop: worker of node ran q.
type slot struct {
	node, worker int
	q            *query.Query
	res          punch.Result
	wall         time.Duration
	log          []prov.Access
}

// advance moves the virtual clock past a stage whose batch is grouped by
// node: each node's slots list-schedule onto its cores, and nodes run in
// parallel, so the stage costs the largest per-node makespan — for one
// tree, the batch's makespan. It returns the cost charged.
func (r *reducer) advance(batch []slot, cores int) int64 {
	var stage int64
	for lo := 0; lo < len(batch); {
		hi := lo
		costs := r.costs[:0]
		for ; hi < len(batch) && batch[hi].node == batch[lo].node; hi++ {
			costs = append(costs, batch[hi].res.Cost)
		}
		c := makespan(costs, cores)
		if r.nodes != nil {
			r.nodes[batch[lo].node].BusyTicks += c
		}
		stage = max(stage, c)
		lo, r.costs = hi, costs
	}
	r.vtime += stage
	return stage
}

// reduceBatch is REDUCE for a round of the batch loop, phase by phase: every
// result is applied — including results that land in the same batch as
// the root's completion — and the root checked before anything is
// collected; then, unless the root is answered (which it reports), every
// Done result is retired (§3.3).
func (r *reducer) reduceBatch(batch []slot) bool {
	answered := false
	for i := range batch {
		b := &batch[i]
		r.apply(b.node, b.worker, b.q, b.res)
		answered = r.answered(b.res.Self) || answered
	}
	if answered {
		return true
	}
	for i := range batch {
		if b := &batch[i]; b.res.Self.State == query.Done {
			r.retire(b.node, b.worker, b.res.Self)
		}
	}
	return false
}

// wake makes target Ready after a summary that may answer it landed, or
// arms its rewake flag when it is inside PUNCH right now.
func (r *reducer) wake(worker int, target query.ID) {
	node, p := r.find(target)
	if p == nil {
		return
	}
	if r.running[target] {
		r.rewake[target] = true
		return
	}
	if p.State == query.Blocked {
		r.forest[node].SetState(p.ID, query.Ready)
		r.woken = append(r.woken, p)
		r.note(obs.EvWake, node, worker, p, 0)
	}
}

// checkInvariants asserts the reducer's own bookkeeping (under
// CheckContract, after every retire): every query ever added is still in
// the forest — Done and kept, or live — or was collected; no waiter edge
// names a query that is gone; the in-flight index holds live queries
// only.
func (r *reducer) checkInvariants() {
	live, keys := 0, 0
	for _, t := range r.forest {
		live += t.Len()
		keys += t.InflightSize()
	}
	if r.created != int64(live)+r.collected {
		panic(fmt.Sprintf("core: %d queries created, but %d in the forest + %d collected", r.created, live, r.collected))
	}
	if keys > live {
		panic(fmt.Sprintf("core: %d in-flight keys for %d live queries", keys, live))
	}
	for _, t := range r.forest {
		t.EachWaiterEdge(func(twin, waiter query.ID) {
			for _, id := range [2]query.ID{twin, waiter} {
				if _, q := r.find(id); q == nil {
					panic(fmt.Sprintf("core: waiter edge %d<-%d names collected query %d", twin, waiter, id))
				}
			}
		})
	}
}

// sample closes one scheduling step — a round of the batch loop or a
// streaming completion event: it completes the step's instrumentation
// record (created is the creation count before the step, running the
// queries inside PUNCH right now), folds it into the peak gauges,
// publishes the live state, and appends the record to the trace.
func (r *reducer) sample(s IterSample, created, running int64) {
	for _, t := range r.forest {
		s.Live += t.Len()
	}
	s.DoneSoFar = r.done
	s.NewQueries = int(r.created - created)
	r.res.Iterations = s.Iter + 1
	r.res.PeakReady = max(r.res.PeakReady, s.Ready)
	r.publish(int64(s.Iter+1), running)
	r.res.Trace = append(r.res.Trace, s)
}

// publish hands the live state the gauges that are not events, as one
// value: clock, forest occupancy, progress, coalescer and, on a cluster,
// per-node occupancy and SUMDB size beside the backlog and busy ledger
// the scheduler keeps in r.nodes. running is the number of queries
// inside PUNCH right now (0 for the batch loop, which publishes between
// stages). The caller holds whatever lock guards the forest.
func (r *reducer) publish(iterations, running int64) {
	if r.in.ls == nil {
		return
	}
	g := obs.Gauges{VTime: r.vtime, Iterations: iterations, Nodes: slices.Clone(r.nodes)}
	g.Forest.Spawned, g.Forest.Done, g.Forest.Running = r.alloc.Count(), r.done, running
	g.Coalescer.Hits = r.res.CoalesceHits
	for i, t := range r.forest {
		nl, nr := int64(t.Len()), int64(t.ReadyCount())
		if g.Nodes != nil {
			n := &g.Nodes[i]
			n.Live, n.Ready, n.Blocked, n.Summaries = nl, nr, nl-nr, int64(r.dbs[i].Count())
		}
		g.Forest.Live += nl
		g.Forest.Ready += nr
		g.Coalescer.InflightKeys += int64(t.InflightSize())
		g.Coalescer.WaiterEdges += int64(t.WaiterEdgeCount())
	}
	g.Forest.Blocked = g.Forest.Live - g.Forest.Ready - running
	r.in.ls.Publish(g)
}

// end tears the run down into r.res: counters (the nodes' shelf counts go
// to the metrics registry), the final SUMDB content, the store write-back,
// provenance and the metrics snapshot. The scheduler has recorded the
// stop reason. The last run to end drops the intern table: what the
// result holds is re-interned when next used.
func (r *reducer) end() {
	defer logic.EndRun()
	res := &r.res
	if r.o.Probe != nil {
		r.o.Probe.Detach()
	}
	res.TotalQueries = r.alloc.Count()
	res.VirtualTicks = r.vtime
	res.PeakLive = slices.Max(r.peak)
	res.WallTime = time.Since(r.start)
	res.SumDB = summary.StatsOf(r.dbs...)
	res.Solver = r.solver.StatsSnapshot()
	res.Summaries = r.summaries()
	for i := range r.pctx {
		shelved, taken, evicted := r.pctx[i].Shelf.Counts()
		r.in.m.Add(obs.ShelfShelved, shelved)
		r.in.m.Add(obs.ShelfTaken, taken)
		r.in.m.Add(obs.ShelfEvicted, evicted)
	}
	if c := res.Cutoff; c != nil {
		r.in.m.Add(obs.IncrReproofs, int64(c.Reproofs))
		if c.Held {
			r.in.m.Add(obs.IncrCutoffHits, 1)
		} else {
			r.in.m.Add(obs.IncrCutoffFallbacks, 1)
		}
	}
	if !res.ReusedVerdict {
		r.persistStore(res.Summaries)
		r.finishProv()
	}
	res.Metrics = r.in.finish(r.vtime, res.SumDB, res.Solver)
}

// summaries is the union of the forest's databases.
func (r *reducer) summaries() []summary.Summary {
	var out []summary.Summary
	for _, db := range r.dbs {
		out = append(out, db.All()...)
	}
	return out
}

// persistStore writes sums back to the store, callees before callers: a
// persist cut short never keeps a caller's fact without the callee facts
// it was derived from. The store deduplicates by canonical wire key, so
// re-persisting loaded summaries or gossip replicas is a no-op and
// PersistedSummaries counts only genuinely new facts.
func (r *reducer) persistStore(sums []summary.Summary) {
	if r.o.Store == nil {
		return
	}
	res := &r.res
	rank := map[string]int{}
	for i, proc := range incr.CalleeFirst(r.prog.ProcNames(), r.prog.CallGraph()) {
		rank[proc] = i
	}
	sums = slices.Clone(sums)
	sort.SliceStable(sums, func(i, j int) bool { return rank[sums[i].Proc] < rank[sums[j].Proc] })
	var firstErr error
	for _, s := range sums {
		added, err := r.o.Store.Put(s)
		if err != nil {
			firstErr = err
			break
		}
		if added {
			res.PersistedSummaries++
		}
	}
	if err := r.o.Store.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil && res.StoreErr == nil {
		res.StoreErr = firstErr
	}
}

// finishProv freezes the fold into the result, feeds the cone-size
// histogram, and persists the verdict's record beside the summaries: the
// root question's durable key and the run's procedure dependency
// adjacency, which the next incremental re-check consumes for verdict
// reuse and invalidation planning.
func (r *reducer) finishProv() {
	if r.fold == nil {
		return
	}
	p := r.fold.Finish(r.res.Verdict.String())
	r.res.Provenance = p
	if m := r.o.Metrics; m != nil {
		for _, cs := range p.ConeSizes() {
			m.ObserveConeSize(int64(cs.Size))
		}
	}
	if r.o.Store == nil {
		return
	}
	// An un-encodable question (scripted tests use nil-formula markers
	// that still encode; real failures are volatile keys) just loses the
	// reuse fast path, never the record.
	rootKey, _ := wire.QuestionKey(r.q0)
	wrec := wire.ProvRecord{Root: p.Root, Verdict: p.Verdict, Engine: r.engine, RootKey: rootKey, Deps: p.Deps}
	if err := r.o.Store.PutProv(wrec); err != nil && r.res.StoreErr == nil {
		r.res.StoreErr = err
	}
}
