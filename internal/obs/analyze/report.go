package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/query"
)

// PathStep is one PUNCH span on the critical path, in causal order.
type PathStep struct {
	Query      query.ID `json:"query"`
	Proc       string   `json:"proc"`
	Slice      int      `json:"slice"`
	Cost       int64    `json:"cost"`
	Node       int      `json:"node"`
	Worker     int      `json:"worker"`
	StartVTime int64    `json:"start_vtime"`
	EndVTime   int64    `json:"end_vtime"`
}

// ProcShare attributes critical-path ticks to one procedure.
type ProcShare struct {
	Proc  string  `json:"proc"`
	Ticks int64   `json:"ticks"`
	Share float64 `json:"share"`
}

// WhatIfRow is one entry of the scalability model: the predicted
// makespan window at a worker count (0 = infinitely many workers).
type WhatIfRow struct {
	Workers int `json:"workers"`
	// LowerTicks is max(span, work/p) — no schedule beats it; UpperTicks
	// is span + (work-span)/p — greedy scheduling never exceeds it.
	LowerTicks int64 `json:"lower_ticks"`
	UpperTicks int64 `json:"upper_ticks"`
}

// BlockedQuery is one query's total Blocked time.
type BlockedQuery struct {
	Query        query.ID `json:"query"`
	Proc         string   `json:"proc"`
	BlockedTicks int64    `json:"blocked_ticks"`
}

// WorkerProfile is one (node, worker) track's straggler view.
type WorkerProfile struct {
	Node        int     `json:"node"`
	Worker      int     `json:"worker"`
	Punches     int64   `json:"punches"`
	BusyTicks   int64   `json:"busy_ticks"`
	Steals      int64   `json:"steals"`
	Utilization float64 `json:"utilization"`
	// FirstStart/LastEnd bound the track's active window in virtual
	// time; IdleGapTicks is the total virtual time between consecutive
	// spans on the track and MaxIdleGap the largest single gap.
	FirstStart   int64 `json:"first_start"`
	LastEnd      int64 `json:"last_end"`
	IdleGapTicks int64 `json:"idle_gap_ticks"`
	MaxIdleGap   int64 `json:"max_idle_gap"`

	lastEnd int64
}

// NodeProfile is one simulated node's skew and gossip view (single-node
// engines report exactly one).
type NodeProfile struct {
	Node        int   `json:"node"`
	Punches     int64 `json:"punches"`
	BusyTicks   int64 `json:"busy_ticks"`
	GossipSends int64 `json:"gossip_sends"`
	GossipRecvs int64 `json:"gossip_recvs"`
	GossipBytes int64 `json:"gossip_bytes"`
	Killed      bool  `json:"killed,omitempty"`
}

// Report is the full derived view of one run's trace.
type Report struct {
	Events int   `json:"events"`
	Spans  int   `json:"spans"`
	Spawns int64 `json:"spawns"`
	Dones  int64 `json:"dones"`
	GCd    int64 `json:"gcd"`
	Steals int64 `json:"steals"`

	// Coalesces counts spawns answered by a live in-flight twin instead
	// of a duplicate subtree; CoalescedSavedTicks estimates the PUNCH
	// work those duplicates would have re-spent (sum of each twin's
	// total observed cost, a per-coalesce lower bound).
	Coalesces           int64 `json:"coalesces"`
	CoalescedSavedTicks int64 `json:"coalesced_saved_ticks"`

	// MakespanTicks is the observed virtual makespan (the stream's
	// maximum timestamp); WorkTicks the total PUNCH cost; SpanTicks the
	// causality DAG's longest cost-weighted chain. CriticalPathTicks is
	// SpanTicks under its profiler name: the two are the same quantity
	// seen as a bound (span) and as a chain to optimize (critical path).
	MakespanTicks     int64 `json:"makespan_ticks"`
	WorkTicks         int64 `json:"work_ticks"`
	SpanTicks         int64 `json:"span_ticks"`
	CriticalPathTicks int64 `json:"critical_path_ticks"`

	// MaxSpeedup is work/span — the speedup no thread count can exceed.
	MaxSpeedup float64 `json:"max_speedup"`
	// ObservedParallelism is work/makespan — the average number of busy
	// simulated cores; ParallelEfficiency divides it by the worker
	// tracks that did any work.
	ObservedParallelism float64 `json:"observed_parallelism"`
	ParallelEfficiency  float64 `json:"parallel_efficiency"`
	MeasuredWorkers     int     `json:"measured_workers"`

	CriticalPath                []PathStep  `json:"critical_path"`
	CriticalPathByProc          []ProcShare `json:"critical_path_by_proc"`
	CriticalPathShareOfMakespan float64     `json:"critical_path_share_of_makespan"`

	WhatIf []WhatIfRow `json:"what_if"`

	// Meter holds the cost model against the wall clock; nil when no
	// span carries a wall time.
	Meter *MeterFit `json:"meter,omitempty"`

	TotalBlockedTicks int64            `json:"total_blocked_ticks"`
	BlockedTimes      obs.HistSnapshot `json:"blocked_times"`
	TopBlocked        []BlockedQuery   `json:"top_blocked,omitempty"`

	Workers []WorkerProfile `json:"workers"`
	Nodes   []NodeProfile   `json:"nodes"`
	// NodeSkew is max/avg per-node busy ticks (1.0 = perfectly even;
	// meaningful only for multi-node traces).
	NodeSkew float64 `json:"node_skew,omitempty"`
}

// MeterFit checks the abstract cost of each PUNCH invocation, the unit
// every virtual time is made of, against the wall time it took. A stream
// is one run, so every step belongs to the run's analysis.
type MeterFit struct {
	// Steps counts the spans with a wall time; NsPerTick is their wall
	// time over their cost.
	Steps     int     `json:"steps"`
	NsPerTick float64 `json:"ns_per_tick"`
	// Spearman is the rank correlation of cost with wall time over the
	// steps, ties at their mean rank: 1 when the meter orders the steps
	// as the clock does.
	Spearman float64 `json:"spearman"`
	// Worst are the steps whose wall time the cost predicts worst at
	// NsPerTick, largest absolute error first (at most five).
	Worst []MeterMiss `json:"worst,omitempty"`
}

// MeterMiss is one step's cost against its wall time.
type MeterMiss struct {
	Query       query.ID `json:"query"`
	Proc        string   `json:"proc"`
	Slice       int      `json:"slice"`
	Cost        int64    `json:"cost"`
	WallNs      int64    `json:"wall_ns"`
	PredictedNs int64    `json:"predicted_ns"`
}

// fitMeter fits spans' costs to their wall times; nil when no span has
// a wall time.
func fitMeter(spans []Span) *MeterFit {
	var steps []Span
	var cost, wall int64
	for _, sp := range spans {
		if sp.WallNs > 0 {
			steps = append(steps, sp)
			cost, wall = cost+sp.Cost, wall+sp.WallNs
		}
	}
	if len(steps) == 0 || cost == 0 {
		return nil
	}
	m := &MeterFit{Steps: len(steps), NsPerTick: float64(wall) / float64(cost)}
	costs, walls := make([]float64, len(steps)), make([]float64, len(steps))
	for i, sp := range steps {
		costs[i], walls[i] = float64(sp.Cost), float64(sp.WallNs)
	}
	m.Spearman = pearson(ranks(costs), ranks(walls))
	miss := func(sp Span) float64 { return math.Abs(float64(sp.WallNs) - float64(sp.Cost)*m.NsPerTick) }
	sort.SliceStable(steps, func(i, j int) bool { return miss(steps[i]) > miss(steps[j]) })
	for _, sp := range steps[:min(5, len(steps))] {
		m.Worst = append(m.Worst, MeterMiss{Query: sp.Query, Proc: sp.Proc, Slice: sp.Slice, Cost: sp.Cost,
			WallNs: sp.WallNs, PredictedNs: int64(float64(sp.Cost) * m.NsPerTick)})
	}
	return m
}

// ranks returns the rank of each of xs from 1, ties at their mean rank.
func ranks(xs []float64) []float64 {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return xs[order[i]] < xs[order[j]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(order); {
		j := i
		for j+1 < len(order) && xs[order[j+1]] == xs[order[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			r[order[k]] = float64(i+j)/2 + 1
		}
		i = j + 1
	}
	return r
}

// pearson is the correlation of xs with ys; 0 when either is constant.
func pearson(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx, my = mx+xs[i], my+ys[i]
	}
	mx, my = mx/float64(len(xs)), my/float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy, sxx, syy = sxy+dx*dy, sxx+dx*dx, syy+dy*dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// PredictMakespan is the what-if lower bound at p workers:
// max(span, work/p). No schedule on p workers can finish faster.
func (r *Report) PredictMakespan(p int) int64 {
	if p <= 0 {
		return r.SpanTicks
	}
	perWorker := (r.WorkTicks + int64(p) - 1) / int64(p)
	if perWorker < r.SpanTicks {
		return r.SpanTicks
	}
	return perWorker
}

// predictUpper is the greedy-scheduling (Brent) upper bound at p
// workers: span + (work-span)/p.
func (r *Report) predictUpper(p int) int64 {
	if p <= 0 {
		return r.SpanTicks
	}
	rest := r.WorkTicks - r.SpanTicks
	if rest < 0 {
		rest = 0
	}
	return r.SpanTicks + (rest+int64(p)-1)/int64(p)
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as a human-readable profile.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("trace analysis: %d events, %d punch spans, %d spawns, %d done, %d gc'd, %d steals\n",
		r.Events, r.Spans, r.Spawns, r.Dones, r.GCd, r.Steals)
	if r.Coalesces > 0 {
		p("coalescing: %d duplicate spawns coalesced, ~%d ticks of punch work saved\n",
			r.Coalesces, r.CoalescedSavedTicks)
	}
	p("\nwork/span\n")
	p("  makespan (observed)   %12d ticks\n", r.MakespanTicks)
	p("  work  (total cost)    %12d ticks\n", r.WorkTicks)
	p("  span  (critical path) %12d ticks\n", r.SpanTicks)
	p("  max theoretical speedup  %9.2fx (work/span)\n", r.MaxSpeedup)
	p("  observed parallelism     %9.2fx (work/makespan)\n", r.ObservedParallelism)
	p("  parallel efficiency      %9.1f%% over %d worker tracks\n",
		r.ParallelEfficiency*100, r.MeasuredWorkers)

	p("\nwhat-if makespan (lower = balance bound, upper = greedy bound)\n")
	for _, row := range r.WhatIf {
		label := fmt.Sprintf("%d workers", row.Workers)
		if row.Workers == 0 {
			label = "infinite"
		}
		p("  %-12s %12d .. %-12d ticks\n", label, row.LowerTicks, row.UpperTicks)
	}

	p("\ncritical path: %d ticks, %.1f%% of makespan, %d spans\n",
		r.CriticalPathTicks, r.CriticalPathShareOfMakespan*100, len(r.CriticalPath))
	for _, ps := range r.CriticalPathByProc {
		p("  %-30s %12d ticks  %5.1f%%\n", ps.Proc, ps.Ticks, ps.Share*100)
	}
	n := len(r.CriticalPath)
	show := n
	if show > 12 {
		show = 12
	}
	for i := 0; i < show; i++ {
		st := r.CriticalPath[i]
		p("  #%-3d query %-6d slice %-3d %-28s cost %d\n", i, st.Query, st.Slice, st.Proc, st.Cost)
	}
	if n > show {
		p("  ... %d more spans\n", n-show)
	}

	if m := r.Meter; m != nil {
		p("\nmeter against the wall clock: %d steps, %.1f ns per tick, Spearman rank correlation of cost with wall %.3f\n",
			m.Steps, m.NsPerTick, m.Spearman)
		for _, w := range m.Worst {
			p("  worst predicted: query %-6d slice %-3d %-28s cost %-8d wall %10d ns, predicted %10d ns\n",
				w.Query, w.Slice, w.Proc, w.Cost, w.WallNs, w.PredictedNs)
		}
	}

	p("\nblocking: %d ticks total blocked time across %d queries\n",
		r.TotalBlockedTicks, r.BlockedTimes.Count)
	for _, b := range r.BlockedTimes.Buckets {
		p("  blocked <= %-10d %6d queries\n", b.Le, b.Count)
	}
	for _, tb := range r.TopBlocked {
		p("  top blocked: query %-6d %-28s %12d ticks\n", tb.Query, tb.Proc, tb.BlockedTicks)
	}

	p("\nworkers (%d tracks)\n", len(r.Workers))
	for _, wp := range r.Workers {
		p("  node %-2d worker %-3d punches %-6d busy %-10d util %5.1f%% steals %-5d idle-gaps %-10d max-gap %d\n",
			wp.Node, wp.Worker, wp.Punches, wp.BusyTicks, wp.Utilization*100,
			wp.Steals, wp.IdleGapTicks, wp.MaxIdleGap)
	}

	if len(r.Nodes) > 1 {
		p("\nnodes (%d), skew %.2fx (max/avg busy)\n", len(r.Nodes), r.NodeSkew)
		for _, np := range r.Nodes {
			killed := ""
			if np.Killed {
				killed = "  KILLED"
			}
			p("  node %-2d punches %-6d busy %-10d gossip %d sent / %d recv / %d bytes%s\n",
				np.Node, np.Punches, np.BusyTicks, np.GossipSends, np.GossipRecvs, np.GossipBytes, killed)
		}
	}
	return nil
}
