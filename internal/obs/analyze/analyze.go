// Package analyze is the offline trace-analysis engine: it consumes a
// run's query-lifecycle event stream (an obs.Recording, or a JSONL file
// written by obs.JSONLTracer) and reconstructs the query-causality DAG,
// then derives the run's critical path, its work/span scalability
// bounds, and blocking/straggler attribution.
//
// Causality rules. Each PUNCH invocation (a punch-start/punch-end pair
// on one (node, worker) track) becomes one span node. Span B depends on
// span A when:
//
//   - sequence: A and B are consecutive slices of the same query (a
//     slice cannot start before the previous slice of its query ended);
//   - spawn: B is the first slice of a query whose spawn event was
//     emitted by A's query while A was its latest completed slice (a
//     child cannot run before the parent slice that created it);
//   - wake: B is the slice a blocked query ran after a wake, and the
//     wake was triggered by a child whose completing slice was A (a
//     parent cannot resume before the child answer that woke it).
//
// The span of the DAG — the cost-weighted longest dependency chain — is
// the run's critical path: no schedule, at any worker count, can finish
// in less virtual time. Total work over span is therefore the maximum
// theoretical speedup, and the classic scheduling bounds
//
//	max(span, work/p)  <=  T_p  <=  span + (work-span)/p
//
// turn the trace into a what-if model for the paper's thread-throttle
// study (§5): the lower bound is what a perfectly balanced scheduler
// achieves, the upper bound is Brent/greedy list scheduling.
package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/query"
)

// Span is one PUNCH invocation in the reconstructed DAG.
type Span struct {
	Query  query.ID `json:"query"`
	Proc   string   `json:"proc"`
	Node   int      `json:"node"`
	Worker int      `json:"worker"`
	// Slice is this span's ordinal among its query's spans (0-based).
	Slice int `json:"slice"`
	// StartVTime and EndVTime are the engine's virtual clock at the
	// punch-start and punch-end events; Cost is the invocation's abstract
	// cost (the DAG edge weight).
	StartVTime int64 `json:"start_vtime"`
	EndVTime   int64 `json:"end_vtime"`
	Cost       int64 `json:"cost"`
	// WallNs is the invocation's wall nanoseconds (the punch-end's N).
	WallNs int64 `json:"wall_ns"`

	// finish is the earliest-finish time of this span under the DAG's
	// precedence (critical-path recurrence); bestDep the dependency that
	// realizes it (-1 = none).
	finish  int64
	bestDep int
}

// Analyze reconstructs the causality DAG from an event stream in
// arrival order and derives the full report. The stream must come from
// one run; an empty stream yields an error.
func Analyze(events []obs.Event) (*Report, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("analyze: empty event stream")
	}
	b := &builder{
		open:          map[[2]int]obs.Event{},
		lastSpan:      map[query.ID]int{},
		pending:       map[query.ID][]int{},
		parent:        map[query.ID]query.ID{},
		slices:        map[query.ID]int{},
		lastChildDone: map[query.ID]int{},
		blockAt:       map[query.ID]int64{},
		blockedTotal:  map[query.ID]int64{},
		blockedProc:   map[query.ID]string{},
		costByQuery:   map[query.ID]int64{},
		workers:       map[[2]int]*WorkerProfile{},
		nodes:         map[int]*NodeProfile{},
	}
	for _, ev := range events {
		b.feed(ev)
	}
	return b.report(len(events))
}

// builder accumulates the DAG while replaying the stream.
type builder struct {
	spans []Span
	// open holds the pending punch-start per (node, worker) track.
	open map[[2]int]obs.Event
	// lastSpan is each query's latest completed span index.
	lastSpan map[query.ID]int
	// pending collects the cross-query dependencies (spawn, wake) of each
	// query's next span.
	pending map[query.ID][]int
	parent  map[query.ID]query.ID
	slices  map[query.ID]int
	// lastChildDone is the span index of the most recent completed child
	// of each query — the wake edge's source.
	lastChildDone map[query.ID]int

	blockAt      map[query.ID]int64
	blockedTotal map[query.ID]int64
	blockedProc  map[query.ID]string

	// costByQuery accumulates each query's total PUNCH cost; coalesce
	// events consult it at report time to attribute the duplicate
	// subtree work that coalescing avoided (the twin's total cost is a
	// lower bound on what the dropped duplicate would have re-spent).
	costByQuery   map[query.ID]int64
	coalesceTwins []query.ID

	workers map[[2]int]*WorkerProfile
	nodes   map[int]*NodeProfile

	spawns, dones, gcd, steals, coalesces int64
	maxVTime                              int64
	critical                              int // span index with the max finish (-1 until set)
}

func (b *builder) node(n int) *NodeProfile {
	np := b.nodes[n]
	if np == nil {
		np = &NodeProfile{Node: n}
		b.nodes[n] = np
	}
	return np
}

func (b *builder) feed(ev obs.Event) {
	if ev.VTime > b.maxVTime {
		b.maxVTime = ev.VTime
	}
	key := [2]int{ev.Node, ev.Worker}
	switch ev.Type {
	case obs.EvSpawn:
		b.spawns++
		b.parent[ev.Query] = ev.Parent
		if ps, ok := b.lastSpan[ev.Parent]; ok {
			b.pending[ev.Query] = append(b.pending[ev.Query], ps)
		}
	case obs.EvPunchStart:
		b.open[key] = ev
	case obs.EvPunchEnd:
		start, ok := b.open[key]
		if !ok {
			start = ev // lone end: synthesize an instant start
		}
		delete(b.open, key)
		b.addSpan(start, ev)
	case obs.EvBlock:
		b.blockAt[ev.Query] = ev.VTime
		b.blockedProc[ev.Query] = ev.Proc
	case obs.EvWake:
		if at, ok := b.blockAt[ev.Query]; ok {
			if d := ev.VTime - at; d > 0 {
				b.blockedTotal[ev.Query] += d
			}
			delete(b.blockAt, ev.Query)
		}
		if cd, ok := b.lastChildDone[ev.Query]; ok {
			b.pending[ev.Query] = append(b.pending[ev.Query], cd)
		}
	case obs.EvDone:
		b.dones++
		if s, ok := b.lastSpan[ev.Query]; ok {
			if p, ok := b.parent[ev.Query]; ok && p != query.NoParent {
				b.lastChildDone[p] = s
			}
		}
	case obs.EvSteal:
		b.steals++
		if w := b.workers[key]; w != nil {
			w.Steals++
		} else {
			wp := &WorkerProfile{Node: ev.Node, Worker: ev.Worker, Steals: 1, FirstStart: -1}
			b.workers[key] = wp
		}
	case obs.EvGC:
		b.gcd += ev.N
	case obs.EvCoalesce:
		b.coalesces++
		b.coalesceTwins = append(b.coalesceTwins, query.ID(ev.N))
	case obs.EvGossipSend:
		np := b.node(ev.Node)
		np.GossipSends++
		np.GossipBytes += ev.N
	case obs.EvGossipRecv:
		np := b.node(ev.Node)
		np.GossipRecvs++
		np.GossipBytes += ev.N
	case obs.EvNodeKill:
		b.node(ev.Node).Killed = true
	}
}

// addSpan closes one punch-start/punch-end pair into a DAG node and
// runs the earliest-finish recurrence over its dependencies.
func (b *builder) addSpan(start, end obs.Event) {
	idx := len(b.spans)
	sp := Span{
		Query:      end.Query,
		Proc:       end.Proc,
		Node:       end.Node,
		Worker:     end.Worker,
		Slice:      b.slices[end.Query],
		StartVTime: start.VTime,
		EndVTime:   end.VTime,
		Cost:       end.Cost,
		WallNs:     end.N,
		bestDep:    -1,
	}
	b.slices[end.Query]++
	b.costByQuery[end.Query] += sp.Cost

	consider := func(dep int) {
		if dep < 0 || dep >= idx {
			return
		}
		if f := b.spans[dep].finish; sp.bestDep == -1 || f > b.spans[sp.bestDep].finish {
			sp.bestDep = dep
		}
	}
	if prev, ok := b.lastSpan[end.Query]; ok {
		consider(prev)
	}
	for _, dep := range b.pending[end.Query] {
		consider(dep)
	}
	delete(b.pending, end.Query)

	sp.finish = sp.Cost
	if sp.bestDep >= 0 {
		sp.finish += b.spans[sp.bestDep].finish
	}
	b.spans = append(b.spans, sp)
	b.lastSpan[end.Query] = idx
	if b.critical < 0 || len(b.spans) == 1 || sp.finish > b.spans[b.critical].finish {
		b.critical = idx
	}

	key := [2]int{end.Node, end.Worker}
	w := b.workers[key]
	if w == nil {
		w = &WorkerProfile{Node: end.Node, Worker: end.Worker, FirstStart: -1}
		b.workers[key] = w
	}
	w.Punches++
	w.BusyTicks += sp.Cost
	if w.FirstStart < 0 || sp.StartVTime < w.FirstStart {
		w.FirstStart = sp.StartVTime
	}
	if gap := sp.StartVTime - w.lastEnd; w.Punches > 1 && gap > 0 {
		w.IdleGapTicks += gap
		if gap > w.MaxIdleGap {
			w.MaxIdleGap = gap
		}
	}
	if sp.EndVTime > w.lastEnd {
		w.lastEnd = sp.EndVTime
	}
	w.LastEnd = w.lastEnd

	np := b.node(end.Node)
	np.Punches++
	np.BusyTicks += sp.Cost
}

// report finalizes the derived views.
func (b *builder) report(events int) (*Report, error) {
	if len(b.spans) == 0 {
		return nil, fmt.Errorf("analyze: stream holds no completed PUNCH spans")
	}
	r := &Report{
		Events:        events,
		Spans:         len(b.spans),
		Spawns:        b.spawns,
		Dones:         b.dones,
		GCd:           b.gcd,
		Steals:        b.steals,
		Coalesces:     b.coalesces,
		MakespanTicks: b.maxVTime,
	}
	for _, tw := range b.coalesceTwins {
		r.CoalescedSavedTicks += b.costByQuery[tw]
	}
	for i := range b.spans {
		r.WorkTicks += b.spans[i].Cost
	}
	r.SpanTicks = b.spans[b.critical].finish
	r.CriticalPathTicks = r.SpanTicks

	// Walk the critical path backwards from the max-finish span.
	byProc := map[string]int64{}
	for i := b.critical; i >= 0; i = b.spans[i].bestDep {
		sp := b.spans[i]
		r.CriticalPath = append(r.CriticalPath, PathStep{
			Query: sp.Query, Proc: sp.Proc, Slice: sp.Slice,
			Cost: sp.Cost, Node: sp.Node, Worker: sp.Worker,
			StartVTime: sp.StartVTime, EndVTime: sp.EndVTime,
		})
		byProc[sp.Proc] += sp.Cost
	}
	// Reverse into causal order.
	for i, j := 0, len(r.CriticalPath)-1; i < j; i, j = i+1, j-1 {
		r.CriticalPath[i], r.CriticalPath[j] = r.CriticalPath[j], r.CriticalPath[i]
	}
	for proc, ticks := range byProc {
		ps := ProcShare{Proc: proc, Ticks: ticks}
		if r.SpanTicks > 0 {
			ps.Share = float64(ticks) / float64(r.SpanTicks)
		}
		r.CriticalPathByProc = append(r.CriticalPathByProc, ps)
	}
	sort.Slice(r.CriticalPathByProc, func(i, j int) bool {
		a, c := r.CriticalPathByProc[i], r.CriticalPathByProc[j]
		if a.Ticks != c.Ticks {
			return a.Ticks > c.Ticks
		}
		return a.Proc < c.Proc
	})
	if r.MakespanTicks > 0 {
		r.CriticalPathShareOfMakespan = float64(r.SpanTicks) / float64(r.MakespanTicks)
		r.ObservedParallelism = float64(r.WorkTicks) / float64(r.MakespanTicks)
	}
	if r.SpanTicks > 0 {
		r.MaxSpeedup = float64(r.WorkTicks) / float64(r.SpanTicks)
	}

	r.Meter = fitMeter(b.spans)

	// Blocking attribution: the distribution of per-query blocked time.
	var hist obs.Histogram
	for q, d := range b.blockedTotal {
		hist.Observe(d)
		r.TotalBlockedTicks += d
		r.TopBlocked = append(r.TopBlocked, BlockedQuery{
			Query: q, Proc: b.blockedProc[q], BlockedTicks: d,
		})
	}
	sort.Slice(r.TopBlocked, func(i, j int) bool {
		a, c := r.TopBlocked[i], r.TopBlocked[j]
		if a.BlockedTicks != c.BlockedTicks {
			return a.BlockedTicks > c.BlockedTicks
		}
		return a.Query < c.Query
	})
	if len(r.TopBlocked) > 10 {
		r.TopBlocked = r.TopBlocked[:10]
	}
	r.BlockedTimes = hist.Snapshot()

	// Worker and node profiles, in track order.
	for _, w := range b.workers {
		if r.MakespanTicks > 0 {
			w.Utilization = float64(w.BusyTicks) / float64(r.MakespanTicks)
		}
		r.Workers = append(r.Workers, *w)
	}
	sort.Slice(r.Workers, func(i, j int) bool {
		if r.Workers[i].Node != r.Workers[j].Node {
			return r.Workers[i].Node < r.Workers[j].Node
		}
		return r.Workers[i].Worker < r.Workers[j].Worker
	})
	for i := range r.Workers {
		if r.Workers[i].Punches > 0 {
			r.MeasuredWorkers++
		}
	}
	if r.MeasuredWorkers > 0 && r.MakespanTicks > 0 {
		r.ParallelEfficiency = float64(r.WorkTicks) /
			(float64(r.MakespanTicks) * float64(r.MeasuredWorkers))
	}

	var busySum int64
	var busyMax int64
	for _, np := range b.nodes {
		r.Nodes = append(r.Nodes, *np)
		busySum += np.BusyTicks
		if np.BusyTicks > busyMax {
			busyMax = np.BusyTicks
		}
	}
	sort.Slice(r.Nodes, func(i, j int) bool { return r.Nodes[i].Node < r.Nodes[j].Node })
	if len(r.Nodes) > 1 && busySum > 0 {
		avg := float64(busySum) / float64(len(r.Nodes))
		r.NodeSkew = float64(busyMax) / avg
	}

	// What-if rows: the measured track count, its doublings, and the
	// infinite-worker limit (the span itself).
	base := r.MeasuredWorkers
	if base < 1 {
		base = 1
	}
	for _, p := range []int{base, 2 * base, 4 * base} {
		r.WhatIf = append(r.WhatIf, WhatIfRow{
			Workers:    p,
			LowerTicks: r.PredictMakespan(p),
			UpperTicks: r.predictUpper(p),
		})
	}
	r.WhatIf = append(r.WhatIf, WhatIfRow{
		Workers: 0, LowerTicks: r.SpanTicks, UpperTicks: r.SpanTicks,
	})
	return r, nil
}
