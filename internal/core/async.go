// Streaming BOLT, the second of the two schedulers: an asynchronous
// work-stealing alternative to the bulk-synchronous Fig. 4 loop (the
// round loop in engine.go). The barrier engine's MAP stage waits for
// its slowest PUNCH before REDUCE may wake any parent, so one
// long-running query idles the whole fleet — the straggler effect that
// asynchronous task pools eliminate. Here a persistent pool of
// MaxThreads workers pulls Ready queries from per-worker deques
// (LIFO-local for cache affinity and depth-first flavour, FIFO-steal for
// breadth when idle), and REDUCE happens incrementally per completion:
// under the scheduler lock each result is applied and, when Done, retired
// at once (reduce.go's apply and retire — the same REDUCE the round loop
// runs per batch), so a finished query wakes its Blocked parent
// and has its subtree collected without waiting for the rest of any
// batch. This file is only the scheduler: deques, stealing, parking,
// budgets and the event-driven clock. When the root query completes,
// in-flight work is cancelled.
//
// Semantics match the barrier engine: the same PUNCH contract, the same
// summary-database monotonicity, and therefore the same verdicts (the
// confluence tests assert this across the corpus and fuzz seeds). The
// virtual clock is event-driven instead of batch-synchronous: each
// completed PUNCH invocation's cost is assigned greedily to the
// least-loaded simulated core, and virtual time is the resulting online
// list-scheduling makespan — the exact analogue of the barrier engine's
// per-batch makespan without the barrier.
package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/punch"
	"repro/internal/query"
)

// coreClock is the event-driven virtual clock: a min-heap of simulated
// core loads. Each completion event assigns its cost to the least-loaded
// core; the clock reads the makespan so far.
type coreClock struct {
	load  []int64 // min-heap
	vtime int64   // max completion time assigned so far
}

// newCoreClock returns a clock whose cores are all busy until start.
func newCoreClock(cores int, start int64) *coreClock {
	if cores <= 0 {
		cores = 1
	}
	c := &coreClock{load: make([]int64, cores), vtime: start}
	for i := range c.load {
		c.load[i] = start
	}
	return c
}

// assign charges cost to the least-loaded core and returns the new
// virtual time. Tracking the running max of assigned completion times is
// exactly the makespan: the eventually-max-loaded core reached its load
// via its own last assignment.
func (c *coreClock) assign(cost int64) int64 {
	l := c.load[0] + cost
	c.load[0] = l
	siftDown(c.load, 0)
	if l > c.vtime {
		c.vtime = l
	}
	return c.vtime
}

// asyncState is the shared scheduler state. One mutex guards the deques,
// the run (forest, instrumentation, running/rewake sets) and the clock;
// PUNCH — the dominant cost — always runs outside the lock.
type asyncState struct {
	r   *reducer
	ctx context.Context

	mu   sync.Mutex
	cond *sync.Cond
	// deques[i] is worker i's deque: the owner pushes and pops at the
	// tail (LIFO, depth-first on its own children), thieves steal from
	// the head (FIFO, oldest queries first).
	deques [][]*query.Query
	queued map[query.ID]bool // in some deque (dedup guard)

	stopped   bool
	reason    StopReason // first stop condition to fire; set by halt
	busy      int        // workers inside PUNCH
	events    int64      // completion events processed
	maxEvents int64
	// clock feeds r.vtime. All event emissions happen with mu held
	// (punch-start before the worker unlocks, punch-end and the lifecycle
	// events inside complete), so the recorded stream is totally ordered
	// and its virtual-time stamps are monotone.
	clock *coreClock
}

// stream schedules r with the streaming engine.
func (e *Engine) stream(ctx context.Context, r *reducer) {
	r.running = map[query.ID]bool{}
	r.rewake = map[query.ID]bool{}
	s := &asyncState{
		r:      r,
		ctx:    ctx,
		deques: make([][]*query.Query, e.opts.MaxThreads),
		queued: map[query.ID]bool{},
		// The round loop's bound, MaxIterations, bounds rounds of up to
		// MaxThreads invocations; bound completion events equivalently.
		// Events are numbered over the whole run, the bound is the
		// phase's.
		events:    int64(r.res.Iterations),
		maxEvents: int64(r.phase.steps) + int64(e.opts.MaxIterations)*int64(e.opts.MaxThreads),
		// A run that re-proved an edited procedure's interface first
		// starts its root where the re-proofs left the clock.
		clock: newCoreClock(e.opts.VirtualCores, r.vtime),
	}
	s.cond = sync.NewCond(&s.mu)
	s.push(0, r.forest[0].Get(r.root))

	var wg sync.WaitGroup
	for i := 0; i < e.opts.MaxThreads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.worker(id)
		}(i)
	}
	// Cancellation watcher: a parked worker sits in cond.Wait and cannot
	// poll ctx, so a dedicated goroutine turns ctx expiry into halt()'s
	// broadcast. It exits with the run (runDone), never after it.
	runDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.halt(StopCancelled)
				s.mu.Unlock()
			case <-runDone:
			}
		}()
	}
	wg.Wait()
	close(runDone)

	if r.res.Verdict != Unknown {
		// A verdict recorded in the same instant as a budget or
		// cancellation stop is still a verdict.
		s.reason = StopRootAnswered
	}
	r.res.setStop(s.reason)
}

// worker is the persistent loop of one pool member.
func (s *asyncState) worker(id int) {
	r := s.r
	s.mu.Lock()
	for {
		if s.stopped {
			break
		}
		if s.checkBudgets() {
			break
		}
		q := s.pop(id)
		if q == nil {
			if s.busy == 0 {
				// No queued work anywhere and nobody running who could
				// produce more: every survivor is Blocked and no child can
				// ever answer, so the analysis is stuck. (A root answer
				// stops the run before the pool can drain.)
				s.halt(StopDeadlocked)
				break
			}
			r.res.IdleWaits++
			r.in.park(id)
			s.cond.Wait()
			continue
		}
		s.busy++
		r.running[q.ID] = true
		// While PUNCH runs it may mutate q in place outside the lock;
		// keep index scans (ReadyCount, InState) away from it.
		r.forest[0].Deschedule(q.ID)
		r.punchStart(0, id, q)
		d := r.depth[q.ID]
		s.mu.Unlock()
		res, wall, log := r.step(s.ctx, 0, q, d)
		s.mu.Lock()
		s.busy--
		delete(r.running, q.ID)
		s.complete(id, q, res, wall, log)
	}
	s.mu.Unlock()
}

// checkBudgets enforces cancellation and the wall-clock, virtual-tick
// and event budgets. Called with mu held; returns true when the run must
// stop.
func (s *asyncState) checkBudgets() bool {
	stop := s.r.exhausted(s.ctx)
	if stop == StopNone && s.events >= s.maxEvents {
		stop = StopEventBudget
	}
	if stop == StopNone {
		return false
	}
	s.halt(stop)
	return true
}

// halt records the first stop reason and cancels the run: workers finish
// their current PUNCH invocation and exit, parked workers are woken by
// the broadcast. Called with mu held; later calls are no-ops, so exactly
// one reason survives.
func (s *asyncState) halt(reason StopReason) {
	if s.stopped {
		return
	}
	s.reason = reason
	s.stopped = true
	s.cond.Broadcast()
}

// push enqueues q on worker id's deque unless it is already queued or
// running. Called with mu held.
func (s *asyncState) push(id int, q *query.Query) {
	if s.stopped || s.queued[q.ID] || s.r.running[q.ID] {
		return
	}
	s.queued[q.ID] = true
	s.deques[id] = append(s.deques[id], q)
	s.cond.Signal()
}

// pop returns the next runnable query for worker id: newest from its own
// deque, else oldest stolen from another worker's. Entries whose query
// was garbage-collected or is no longer Ready are discarded in passing.
// Called with mu held.
func (s *asyncState) pop(id int) *query.Query {
	for {
		var q *query.Query
		if d := s.deques[id]; len(d) > 0 {
			q = d[len(d)-1]
			s.deques[id] = d[:len(d)-1]
		} else {
			s.r.in.scan(id)
			for off := 1; off < len(s.deques); off++ {
				v := (id + off) % len(s.deques)
				if d := s.deques[v]; len(d) > 0 {
					q = d[0]
					s.deques[v] = d[1:]
					s.r.res.Steals++
					s.r.note(obs.EvSteal, 0, id, q, int64(v))
					break
				}
			}
		}
		if q == nil {
			return nil
		}
		delete(s.queued, q.ID)
		if live := s.r.forest[0].Get(q.ID); live == q && q.State == query.Ready {
			return q
		}
		// Stale: the subtree was collected or the state moved on.
	}
}

// complete books one finished PUNCH invocation and reduces its result at
// once: apply, root check, retire when Done, pushing whatever became
// runnable onto this worker's deque. Called with mu held.
func (s *asyncState) complete(id int, q *query.Query, res punch.Result, wall time.Duration, log []prov.Access) {
	r := s.r
	s.events++
	vtimeBefore := r.vtime
	r.vtime = s.clock.assign(res.Cost)
	r.punchEnd(0, id, q, res.Cost, wall, log)
	created := r.created
	for _, w := range r.apply(0, id, q, res) {
		s.push(id, w)
	}
	answered := r.answered(res.Self)
	if !answered && res.Self.State == query.Done {
		for _, w := range r.retire(0, id, res.Self) {
			s.push(id, w)
		}
	}
	// Every path (root done and obsolete result included) ends in a
	// sample, so no event's peak is lost.
	r.sample(IterSample{
		Iter:      int(s.events) - 1,
		VTime:     vtimeBefore,
		StageCost: res.Cost,
		Ready:     r.forest[0].ReadyCount(),
		Processed: 1,
	}, created, int64(s.busy))
	if answered {
		// Root answered: the verdict is recorded; cancel all in-flight and
		// queued work.
		s.halt(StopRootAnswered)
	}
}
