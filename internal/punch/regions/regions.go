// Package regions holds the over-approximating half of a verification
// object: the region graph of one procedure, shared by the may and the
// may-must instantiations of PUNCH. Every control location carries a
// partition of its state space into regions (the may-map Σ of §4); an
// abstract edge is a CFG edge with a source and a destination region. It is
// either live — one Edge record, listed at its source and its destination,
// holding what the analyses know about it (one-step feasible, stuck,
// waiting for a child sub-query, how often one was tried) — or dead
// (eliminated, the set Ē, or found one-step infeasible) and without a
// record: the searches walk the lists, live edges only.
//
// Refinement splits a region into parts. Each part denotes a subset of the
// region, so it gets an edge, with the region's marks, where the region had
// a live one and none where it had none; the region is retired and its
// records unlinked: no list ever mentions a region outside the partitions.
package regions

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/summary"
)

// The two directions of a region's lists and of a search.
const out, in = 0, 1

// Region is one member of a node's partition. A split retires it and mints
// parts with fresh IDs, so an ID never comes to denote a different state
// set; caches keyed by region ID stay correct (entries of retired regions
// are merely dead).
type Region struct {
	ID   int32
	Node cfg.NodeID
	F    logic.Formula
	// Target marks regions descending from the initial φ2-region at exit.
	Target bool

	retired bool
	// adj[out][i] and adj[in][i] hold the live abstract edges over the i-th
	// outgoing and incoming CFG edge of Node, always a subsequence of the far
	// node's partition: a search meets the far regions in partition order.
	adj [2][][]*Edge
}

// Live reports whether r is still a member of its node's partition.
func (r *Region) Live() bool { return !r.retired }

// Edge is the state of one live abstract edge. Stuck and Attempts are the
// analyses' to set. A record is never reused for another edge: a path may
// still hold it after a split or Kill unlinked it.
type Edge struct {
	CFG      int // index into the procedure's Edges
	From, To *Region

	// Stuck: the analysis has given up advancing across the edge.
	Stuck bool
	// Attempts counts child sub-queries (or inexact refinements) tried.
	Attempts int
	// Pending is the question of the outstanding child sub-query, nil
	// when none is; Graph.SetPending writes it.
	Pending *summary.Question

	open bool // the one-step feasibility check was made and passed
}

func (e *Edge) String() string { return fmt.Sprintf("e%d:R%d→R%d", e.CFG, e.From.ID, e.To.ID) }

// end returns the region that lists e in direction dir: its source for
// out, its destination for in.
func (e *Edge) end(dir int) *Region { return [2]*Region{e.From, e.To}[dir] }

// Graph is the region graph of one procedure for one query.
type Graph struct {
	proc    *cfg.Proc
	nextID  int32
	at      [][]*Region // node → partition; order is part of the trajectory
	slot    [][2]int32  // CFG edge → its position in proc.Out[From], proc.In[To]
	slab    []Edge      // records not handed out yet
	pending []*Edge     // the live edges with a Pending question

	// Search scratch; seen, via and reach (per direction) go by region ID.
	seen  []bool
	via   []*Edge
	queue []*Region
	reach [2][]bool
}

// New returns the initial graph for the question "can proc exit in post":
// the exit location is partitioned into {post, ¬post}, every other
// location starts with the single region ⊤ (§4), and every pair of regions
// across a CFG edge is a live abstract edge.
func New(proc *cfg.Proc, post logic.Formula) *Graph {
	g := &Graph{proc: proc, at: make([][]*Region, proc.NNodes), slot: make([][2]int32, len(proc.Edges))}
	for n := range g.at {
		for i, ei := range proc.Out[n] {
			g.slot[ei][out] = int32(i)
		}
		for i, ei := range proc.In[n] {
			g.slot[ei][in] = int32(i)
		}
		node := cfg.NodeID(n)
		if node == proc.Exit {
			g.at[n] = []*Region{g.NewRegion(node, post, true), g.NewRegion(node, logic.Not(post), false)}
		} else {
			g.at[n] = []*Region{g.NewRegion(node, logic.True, false)}
		}
	}
	// The first chunk is the initial edges exactly; a small graph cuts no other.
	g.slab = make([]Edge, len(proc.Edges)+len(proc.In[proc.Exit]))
	for ei, ce := range proc.Edges {
		for _, from := range g.at[ce.From] {
			for _, to := range g.at[ce.To] {
				g.link(ei, from, to)
			}
		}
	}
	return g
}

// At returns the partition of node n. The slice is the graph's own.
func (g *Graph) At(n cfg.NodeID) []*Region { return g.at[n] }

// NewRegion mints a region that is not yet part of any partition; Split
// puts it there.
func (g *Graph) NewRegion(node cfg.NodeID, f logic.Formula, target bool) *Region {
	if g.nextID == math.MaxInt32 {
		panic("regions: region IDs exhausted")
	}
	nOut := len(g.proc.Out[node])
	lists := make([][]*Edge, nOut+len(g.proc.In[node]))
	r := &Region{ID: g.nextID, Node: node, F: f, Target: target, adj: [2][][]*Edge{lists[:nOut:nOut], lists[nOut:]}}
	g.nextID++
	return r
}

// list returns the list that holds e at its end in direction dir.
func (g *Graph) list(e *Edge, dir int) *[]*Edge { return &e.end(dir).adj[dir][g.slot[e.CFG][dir]] }

// link makes from → to over CFG edge cfgEdge live: a blank record, cut from
// the slab, at the end of both of its lists.
func (g *Graph) link(cfgEdge int, from, to *Region) *Edge {
	if len(g.slab) == 0 {
		g.slab = make([]Edge, 64)
	}
	e := &g.slab[0]
	g.slab = g.slab[1:]
	e.CFG, e.From, e.To = cfgEdge, from, to
	for dir := range e.From.adj {
		l := g.list(e, dir)
		*l = append(*l, e)
	}
	return e
}

// drop removes e from list, if it is there, keeping the order of the rest:
// a swap-remove would change the order in which a later search meets the
// far regions, and with it what that search evaluates and finds first.
func drop(list *[]*Edge, e *Edge) {
	if i := slices.Index(*list, e); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
}

// Out returns the live abstract edges from from over CFG edge cfgEdge, in
// the partition order of their destinations. The slice is the graph's own.
func (g *Graph) Out(cfgEdge int, from *Region) []*Edge { return from.adj[out][g.slot[cfgEdge][out]] }

// Edge returns the record of the abstract edge from → to over CFG edge
// cfgEdge, nil when the edge is dead.
func (g *Graph) Edge(cfgEdge int, from, to *Region) *Edge {
	if ce := g.proc.Edges[cfgEdge]; from.retired || to.retired || ce.From != from.Node || ce.To != to.Node {
		panic(fmt.Sprintf("regions: abstract edge e%d:R%d→R%d on a retired region or off its CFG edge", cfgEdge, from.ID, to.ID))
	}
	for _, e := range g.Out(cfgEdge, from) {
		if e.To == to {
			return e
		}
	}
	return nil
}

// Kill eliminates e (puts it into Ē): proven infeasible, it leaves both its
// lists for good. A nil e, a dead one and one whose region was split in the
// meantime are left alone.
func (g *Graph) Kill(e *Edge) {
	if e == nil || e.From.retired || e.To.retired {
		return
	}
	drop(g.list(e, out), e)
	drop(g.list(e, in), e)
	g.SetPending(e, nil)
}

// Eliminate kills the edges over CFG edge cfgEdge from each of froms to to.
// When to is no longer live nothing is killed: froms are then parts of a
// region split on a self-loop edge of its own, the destination they were
// refuted against is gone, and what holds between the parts is for later
// steps to find out.
func (g *Graph) Eliminate(cfgEdge int, froms []*Region, to *Region) {
	if to.retired {
		return
	}
	for _, f := range froms {
		g.Kill(g.Edge(cfgEdge, f, to))
	}
}

// SetPending records q as the question of e's outstanding child sub-query,
// nil when it was answered.
func (g *Graph) SetPending(e *Edge, q *summary.Question) {
	if q != nil && e.Pending == nil {
		g.pending = append(g.pending, e)
	} else if q == nil && e.Pending != nil {
		drop(&g.pending, e)
	}
	e.Pending = q
}

// Split replaces r by parts in its node's partition. Each part denotes a
// subset of r, so what was established about an edge of r holds for the
// same edge of every part. Where r had a live edge every part gets one (a
// self-loop edge r → r: every pair of parts) with its stuck mark, attempt
// count and outstanding child. Where r had none the parts have none: an
// eliminated edge stays eliminated, and so does a shut one — pre(stmt, ρ')
// contains the true pre-image of ρ', so when no state of ρ steps into ρ',
// none of a subset of ρ steps into a subset of ρ'; the solver is not asked.
// An open mark is not inherited: an edge open for r may well be shut for a
// part, and finding that out is what the split was for. Lists change as the
// partition does — r's record out, the parts' appended — r's self-loops
// last, so that a part's list over a CFG self-loop ends with the parts too.
func (g *Graph) Split(r *Region, parts ...*Region) {
	g.at[r.Node] = append(slices.DeleteFunc(g.at[r.Node], func(x *Region) bool { return x == r }), parts...)
	r.retired = true
	for pass, lists := range [3][][]*Edge{r.adj[out], r.adj[in], r.adj[out]} { // to others, from others, self-loops
		for _, list := range lists {
			for _, e := range list {
				froms, tos := parts, parts
				switch {
				case (e.From == e.To) != (pass == 2):
					continue
				case e.From != r:
					froms = []*Region{e.From}
					drop(g.list(e, out), e)
				case e.To != r:
					tos = []*Region{e.To}
					drop(g.list(e, in), e)
				}
				for _, f := range froms {
					for _, t := range tos {
						n := g.link(e.CFG, f, t)
						n.Stuck, n.Attempts = e.Stuck, e.Attempts
						g.SetPending(n, e.Pending)
					}
				}
			}
		}
	}
	r.adj = [2][][]*Edge{}
	g.pending = slices.DeleteFunc(g.pending, func(e *Edge) bool { return e.From.retired || e.To.retired })
	auditSplit(g)
}

// auditSplit and auditStep are shown the graph after every split and every
// edge whose one-step check is about to be made; tests replace them.
var auditSplit, auditStep = func(*Graph) {}, func(*Edge) {}

// PartitionOn replaces region r by conjunctive cube regions partitioning
// it along wp, returning the parts inside wp and outside it. Keeping every
// region a small conjunction is what stops refinement formulas from
// snowballing across splits; when DNF expansion is infeasible the fallback
// is a plain binary split.
func (g *Graph) PartitionOn(m *punch.Meter, r *Region, wp logic.Formula) (ins, outs []*Region) {
	mk := func(f logic.Formula) []*Region {
		var parts []*Region
		if logic.EachCube(f, 32, func(c logic.Cube) bool {
			m.Charge(4)
			cf := m.Solver.Simplify(c.Formula())
			if sr := m.Sat(cf); !sr.Known || sr.Sat {
				parts = append(parts, g.NewRegion(r.Node, cf, r.Target))
			}
			return true
		}) {
			return parts
		}
		m.Charge(8)
		s := m.Solver.Simplify(f)
		if sr := m.Sat(s); sr.Known && !sr.Sat {
			return nil
		}
		return []*Region{g.NewRegion(r.Node, s, r.Target)}
	}
	ins = mk(logic.Conj(r.F, wp))
	outs = mk(logic.Conj(r.F, logic.Not(wp)))
	g.Split(r, append(append([]*Region{}, ins...), outs...)...)
	return ins, outs
}

// entryRegions appends the entry regions that intersect pre to queue.
func (g *Graph) entryRegions(m *punch.Meter, pre logic.Formula, queue []*Region) []*Region {
	for _, r := range g.at[g.proc.Entry] {
		if s := m.Sat(logic.Conj(r.F, pre)); !s.Known || s.Sat {
			queue = append(queue, r)
		}
	}
	return queue
}

// isOpen makes the one-step semantic feasibility check of an edge that has
// not had it, and caches that it passed: a simple edge ρ→ρ' is shut when
// ρ ∧ pre(stmt, ρ') is unsatisfiable — a sound elimination without an
// explicit split; the search that finds it unlinks the edge. Call edges are
// open until a summary eliminates them. The check costs what building the
// pre-image (2) and a satisfiability check (4) cost, also when the run's
// solver has met the same triple before and answers from its memo.
func (g *Graph) isOpen(m *punch.Meter, e *Edge) bool {
	ce := &g.proc.Edges[e.CFG]
	if _, isCall := ce.Stmt.(lang.Call); !isCall {
		auditStep(e)
		m.Charge(2 + 4)
		if !m.Solver.StepFeasible(ce.StmtID, ce.Stmt, e.From.F, e.To.F) {
			return false
		}
	}
	e.open = true
	return true
}

// search runs breadth-first from the regions in queue over the live edges,
// along them (dir out) or against them (dir in), marking what it reaches in
// seen and, when via is not nil, through which edge; with via it stops at
// the first target region at exit and returns it. With avoid set, edges
// pending a child answer or stuck are not followed. An edge to a region not
// reached yet that the one-step check finds shut is unlinked on the spot.
func (g *Graph) search(m *punch.Meter, queue []*Region, seen []bool, via []*Edge, avoid bool, dir int) *Region {
	for _, r := range queue {
		seen[r.ID] = true
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if via != nil && cur.Target && cur.Node == g.proc.Exit {
			g.queue = queue[:0]
			return cur
		}
		for slot, list := range cur.adj[dir] {
			n := 0 // list[:n] is what stays; nothing is written until an edge goes
			for _, e := range list {
				far := e.To
				if dir == in {
					far = e.From
				}
				switch {
				case seen[far.ID]:
				case avoid && (e.Stuck || e.Pending != nil):
				case !e.open && !g.isOpen(m, e):
					drop(g.list(e, 1-dir), e)
					g.SetPending(e, nil)
					continue
				default:
					seen[far.ID] = true
					if via != nil {
						via[far.ID] = e
					}
					queue = append(queue, far)
				}
				if list[n] != e {
					list[n] = e
				}
				n++
			}
			if n < len(list) {
				clear(list[n:])
				cur.adj[dir][slot] = list[:n]
			}
		}
	}
	g.queue = queue[:0]
	return nil
}

// FindPath searches breadth-first for an abstract error path from an entry
// region intersecting pre to a target region at exit, over live edges that
// pass the one-step check. With avoid set, edges that are pending a child
// answer or stuck are excluded (such a path is actionable); without it the
// search decides whether any abstract path remains at all (none = proof).
// The result, nil when there is none, is all a search allocates once its
// scratch has grown to the graph.
func (g *Graph) FindPath(m *punch.Meter, pre logic.Formula, avoid bool) []*Edge {
	n := int(g.nextID)
	g.seen = slices.Grow(g.seen[:0], n)[:n]
	g.via = slices.Grow(g.via[:0], n)[:n]
	clear(g.seen)
	clear(g.via) // also lets go of the edges the last search went through
	end := g.search(m, g.entryRegions(m, pre, g.queue), g.seen, g.via, avoid, out)
	if end == nil {
		return nil
	}
	steps := 0
	for e := g.via[end.ID]; e != nil; e = g.via[e.From.ID] {
		steps++
	}
	path := make([]*Edge, steps)
	for e := g.via[end.ID]; e != nil; e = g.via[e.From.ID] {
		steps--
		path[steps] = e
	}
	return path
}

// Reachable computes, indexed by region ID, the regions forward-reachable
// from the entry regions intersecting pre (reverse=false), or backward-
// co-reachable from the target regions (reverse=true), over live edges that
// pass the one-step check (pending and stuck ones included: a may-reach
// sweep). The result is the graph's, good until the next sweep that way.
func (g *Graph) Reachable(m *punch.Meter, pre logic.Formula, reverse bool) []bool {
	dir, queue := out, g.queue
	if reverse {
		dir = in
		for _, r := range g.at[g.proc.Exit] {
			if r.Target {
				queue = append(queue, r)
			}
		}
	} else {
		queue = g.entryRegions(m, pre, queue)
	}
	n := int(g.nextID)
	g.reach[dir] = slices.Grow(g.reach[dir][:0], n)[:n]
	clear(g.reach[dir])
	g.search(m, queue, g.reach[dir], nil, false, dir)
	return g.reach[dir]
}

// SweepPending clears the pending mark of every edge whose question SUMDB
// can now answer, reopening those call edges for the frontier machinery.
// Edges are asked in (CFG edge, source, destination) order.
func (g *Graph) SweepPending(db punch.DB) {
	if len(g.pending) == 0 {
		return
	}
	slices.SortFunc(g.pending, func(a, b *Edge) int {
		return cmp.Or(cmp.Compare(a.CFG, b.CFG), cmp.Compare(a.From.ID, b.From.ID), cmp.Compare(a.To.ID, b.To.ID))
	})
	g.pending = slices.DeleteFunc(g.pending, func(e *Edge) bool {
		if _, verdict := db.Answer(*e.Pending); verdict != 0 {
			e.Pending = nil
		}
		return e.Pending == nil
	})
}

// Check walks the whole graph and reports the first violation of its
// invariants: partitions hold only live regions of their own node; every
// list holds edges over its own CFG edge from (or to) its own region, in
// the order of the far partition — so the far end is live — each also in
// the matching list at its far end; the pending list holds exactly the
// listed edges with a question. Tests call it after every split. ("No call
// edge is shut" has no record left to read: isOpen evaluates none, and the
// tests' audit of absent pairs skips call statements.)
func (g *Graph) Check() error {
	for n, regs := range g.at {
		for i, r := range regs {
			if r.retired || r.Node != cfg.NodeID(n) || slices.Contains(regs[:i], r) {
				return fmt.Errorf("regions: partition of n%d holds R%d (retired=%v, node n%d, or twice)", n, r.ID, r.retired, r.Node)
			}
			for dir, incident := range [2][]int{g.proc.Out[n], g.proc.In[n]} {
				for slot, ci := range incident {
					order := g.at[[2]cfg.NodeID{g.proc.Edges[ci].To, g.proc.Edges[ci].From}[dir]]
					for _, e := range r.adj[dir][slot] {
						i := slices.Index(order, e.end(1-dir))
						if e.CFG != ci || e.end(dir) != r || i < 0 || !slices.Contains(*g.list(e, 1-dir), e) {
							return fmt.Errorf("regions: R%d lists %v under CFG edge %d: not its own, out of partition order (or twice, or to a retired region), or not listed at the far end", r.ID, e, ci)
						}
						order = order[i+1:]
						if e.Pending != nil && !slices.Contains(g.pending, e) {
							return fmt.Errorf("regions: %v has a question and is not in the pending list", e)
						}
					}
				}
			}
		}
	}
	for i, e := range g.pending {
		if e.Pending == nil || e.From.retired || !slices.Contains(*g.list(e, out), e) || slices.Contains(g.pending[:i], e) {
			return fmt.Errorf("regions: the pending list holds %v, which has no question, is not listed or is there twice", e)
		}
	}
	return nil
}
