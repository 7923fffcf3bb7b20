// Package regions holds the over-approximating half of a verification
// object: the region graph of one procedure, shared by the may and the
// may-must instantiations of PUNCH. Every control location carries a
// partition of its state space into regions (the may-map Σ of §4); an
// abstract edge is a CFG edge together with a source and a destination
// region. Everything the analyses know about an abstract edge — eliminated
// (the set Ē), one-step feasibility, stuck, waiting for a child sub-query,
// how often a child was tried — sits in one Edge record, found in one
// probe of one table and listed at both of its endpoint regions.
//
// Refinement splits a region into parts. The parts inherit what was proven
// or decided about the region's edges (each part denotes a subset of it),
// the region is retired, and its edges leave the table with it: no entry
// ever mentions a region that is not in the partition.
package regions

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/summary"
)

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
	edges   []*Edge // every table entry with this region as an endpoint
}

// Live reports whether r is still a member of its node's partition.
func (r *Region) Live() bool { return !r.retired }

// Edge is the state of one abstract edge. The flag and counter fields are
// the analyses' to set; the record itself is obtained from Graph.Edge or
// from a path.
type Edge struct {
	CFG      int // index into the procedure's Edges
	From, To *Region

	// Elim: the edge is proven infeasible (a member of Ē).
	Elim bool
	// Stuck: the analysis has given up advancing across the edge.
	Stuck bool
	// Attempts counts child sub-queries (or inexact refinements) tried.
	Attempts int
	// Pending is the question of the outstanding child sub-query, nil
	// when none is.
	Pending *summary.Question

	open int8 // one-step feasibility: 0 unknown, +1 open, -1 shut
}

// pairKey identifies an abstract edge among those over one CFG edge by its
// two region IDs. IDs are non-negative int32s, so the packing is exact on
// every platform.
type pairKey uint64

func pair(from, to *Region) pairKey { return pairKey(uint64(from.ID)<<32 | uint64(to.ID)) }

func (e *Edge) String() string { return fmt.Sprintf("e%d:R%d→R%d", e.CFG, e.From.ID, e.To.ID) }

// Graph is the region graph of one procedure for one query.
type Graph struct {
	proc   *cfg.Proc
	nextID int32
	at     [][]*Region         // node → partition; order is part of the trajectory
	edges  []map[pairKey]*Edge // CFG edge → (source, destination) → record

	// FindPath scratch, indexed by region ID: reached, and through which
	// edge.
	seen []bool
	via  []*Edge
}

// New returns the initial graph for the question "can proc exit in post":
// the exit location is partitioned into {post, ¬post}, every other
// location starts with the single region ⊤ (§4).
func New(proc *cfg.Proc, post logic.Formula) *Graph {
	g := &Graph{proc: proc, at: make([][]*Region, proc.NNodes), edges: make([]map[pairKey]*Edge, len(proc.Edges))}
	for n := range g.at {
		node := cfg.NodeID(n)
		if node == proc.Exit {
			g.at[n] = []*Region{g.NewRegion(node, post, true), g.NewRegion(node, logic.Not(post), false)}
		} else {
			g.at[n] = []*Region{g.NewRegion(node, logic.True, false)}
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
	r := &Region{ID: g.nextID, Node: node, F: f, Target: target}
	g.nextID++
	return r
}

// Edge returns the record of the abstract edge from → to over CFG edge
// cfgEdge, creating a blank one on first mention.
func (g *Graph) Edge(cfgEdge int, from, to *Region) *Edge {
	k := pair(from, to)
	if e := g.edges[cfgEdge][k]; e != nil {
		return e
	}
	if from.retired || to.retired {
		panic(fmt.Sprintf("regions: abstract edge e%d:R%d→R%d on a retired region", cfgEdge, from.ID, to.ID))
	}
	e := &Edge{CFG: cfgEdge, From: from, To: to}
	if g.edges[cfgEdge] == nil {
		g.edges[cfgEdge] = map[pairKey]*Edge{}
	}
	g.edges[cfgEdge][k] = e
	from.edges = append(from.edges, e)
	if to != from {
		to.edges = append(to.edges, e)
	}
	return e
}

// Split replaces r by parts in its node's partition. Each part denotes a
// subset of r, so what was established about an edge of r holds for the
// same edge of every part: eliminations, stuck marks, attempt counts and
// outstanding children are copied to the parts' edges (a self-loop edge
// r → r to every pair of parts). So is a shut mark: pre(stmt, ρ') contains
// the true pre-image of ρ', so when no state of ρ steps into ρ', none of a
// subset of ρ steps into a subset of ρ' — the parts' edges are shut without
// asking the solver. An open mark is not inherited: an edge open for r may
// well be shut for a part, and finding that out is what the split was for.
// r's own edges then leave the table.
func (g *Graph) Split(r *Region, parts ...*Region) {
	regs := g.at[r.Node]
	kept := regs[:0]
	for _, x := range regs {
		if x != r {
			kept = append(kept, x)
		}
	}
	g.at[r.Node] = append(kept, parts...)
	r.retired = true

	for _, e := range r.edges {
		delete(g.edges[e.CFG], pair(e.From, e.To))
		froms, tos := parts, parts
		if e.From != r {
			e.From.drop(e)
			froms = []*Region{e.From}
		} else if e.To != r {
			e.To.drop(e)
			tos = []*Region{e.To}
		}
		shut := min(e.open, 0)
		if !e.Elim && !e.Stuck && e.Attempts == 0 && e.Pending == nil && shut == 0 {
			continue // nothing decided about it, nothing to inherit
		}
		for _, f := range froms {
			for _, t := range tos {
				n := g.Edge(e.CFG, f, t)
				n.Elim, n.Stuck, n.Attempts, n.Pending, n.open = e.Elim, e.Stuck, e.Attempts, e.Pending, shut
				if shut < 0 && auditInherited != nil {
					auditInherited(g, n)
				}
			}
		}
	}
	r.edges = nil
}

// auditInherited, which only tests set, is shown every edge that Split
// marks shut by inheritance.
var auditInherited func(g *Graph, e *Edge)

// Eliminate marks the edges over CFG edge cfgEdge from each of froms to to
// as eliminated. When to is no longer live nothing is marked: froms are
// then parts of a region that was split on a self-loop edge of its own,
// the destination they were refuted against is gone, and what holds
// between the parts is for later steps to find out.
func (g *Graph) Eliminate(cfgEdge int, froms []*Region, to *Region) {
	if to.retired {
		return
	}
	for _, f := range froms {
		g.Edge(cfgEdge, f, to).Elim = true
	}
}

// drop removes e from r's endpoint list.
func (r *Region) drop(e *Edge) {
	for i, x := range r.edges {
		if x == e {
			last := len(r.edges) - 1
			r.edges[i] = r.edges[last]
			r.edges[last] = nil
			r.edges = r.edges[:last]
			return
		}
	}
}

// PartitionOn replaces region r by conjunctive cube regions partitioning
// it along wp, returning the parts inside wp and outside it. Keeping every
// region a small conjunction is what stops refinement formulas from
// snowballing across splits; when DNF expansion is infeasible the fallback
// is a plain binary split.
func (g *Graph) PartitionOn(m *punch.Meter, r *Region, wp logic.Formula) (ins, outs []*Region) {
	mk := func(f logic.Formula) []*Region {
		cubes, ok := logic.Cubes(f, 32)
		if !ok {
			m.Charge(8)
			s := m.Solver.Simplify(f)
			if sr := m.Sat(s); sr.Known && !sr.Sat {
				return nil
			}
			return []*Region{g.NewRegion(r.Node, s, r.Target)}
		}
		var parts []*Region
		for _, c := range cubes {
			m.Charge(4)
			cf := m.Solver.Simplify(c.Formula())
			if sr := m.Sat(cf); sr.Known && !sr.Sat {
				continue
			}
			parts = append(parts, g.NewRegion(r.Node, cf, r.Target))
		}
		return parts
	}
	ins = mk(logic.Conj(r.F, wp))
	outs = mk(logic.Conj(r.F, logic.Not(wp)))
	g.Split(r, append(append([]*Region{}, ins...), outs...)...)
	return ins, outs
}

// entryRegions returns the entry regions that intersect pre.
func (g *Graph) entryRegions(m *punch.Meter, pre logic.Formula) (out []*Region) {
	for _, r := range g.at[g.proc.Entry] {
		if s := m.Sat(logic.Conj(r.F, pre)); s.Known && !s.Sat {
			continue
		}
		out = append(out, r)
	}
	return out
}

// isOpen performs (and caches) the one-step semantic feasibility check for
// simple edges: the abstract edge ρ→ρ' is shut when ρ ∧ pre(stmt, ρ') is
// unsatisfiable — a sound elimination without an explicit split. Call
// edges are open until eliminated by a summary. The check costs what
// building the pre-image (2) and a satisfiability check (4) cost, also
// when the run's solver has met the same statement between the same two
// formulas before and answers from its memo.
func (g *Graph) isOpen(m *punch.Meter, e *Edge) bool {
	if e.open == 0 {
		e.open = 1
		ce := &g.proc.Edges[e.CFG]
		if _, isCall := ce.Stmt.(lang.Call); !isCall {
			m.Charge(2 + 4)
			if !m.Solver.StepFeasible(ce.StmtID, ce.Stmt, e.From.F, e.To.F) {
				e.open = -1
			}
		}
	}
	return e.open > 0
}

// FindPath searches breadth-first for an abstract error path from an entry
// region intersecting pre to a target region at exit, over edges that are
// neither eliminated nor shut. With avoid set, edges that are pending a
// child answer or stuck are excluded (such a path is actionable); without
// it the search decides whether any abstract path remains at all (no path
// = proof). The result is nil when there is none.
func (g *Graph) FindPath(m *punch.Meter, pre logic.Formula, avoid bool) []*Edge {
	n := int(g.nextID)
	g.seen = slices.Grow(g.seen[:0], n)[:n]
	g.via = slices.Grow(g.via[:0], n)[:n]
	clear(g.seen)
	clear(g.via) // also lets go of the edges the last search went through
	seen, via := g.seen, g.via
	queue := g.entryRegions(m, pre)
	for _, r := range queue {
		seen[r.ID] = true
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if cur.Target && cur.Node == g.proc.Exit {
			path := []*Edge{}
			for e := via[cur.ID]; e != nil; e = via[e.From.ID] {
				path = append(path, e)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
		for _, ei := range g.proc.Out[cur.Node] {
			for _, r2 := range g.at[g.proc.Edges[ei].To] {
				if seen[r2.ID] {
					continue
				}
				e := g.Edge(ei, cur, r2)
				if e.Elim || avoid && (e.Stuck || e.Pending != nil) || !g.isOpen(m, e) {
					continue
				}
				seen[r2.ID], via[r2.ID] = true, e
				queue = append(queue, r2)
			}
		}
	}
	return nil
}

// Reachable computes, indexed by region ID, the regions forward-reachable
// from the entry regions intersecting pre (reverse=false), or backward-
// co-reachable from the target regions (reverse=true), over edges that
// are neither eliminated nor shut (pending and stuck edges included — this
// is a may-reachability sweep).
func (g *Graph) Reachable(m *punch.Meter, pre logic.Formula, reverse bool) []bool {
	seen := make([]bool, g.nextID)
	var queue []*Region
	if reverse {
		for _, r := range g.at[g.proc.Exit] {
			if r.Target {
				queue = append(queue, r)
			}
		}
	} else {
		queue = g.entryRegions(m, pre)
	}
	for _, r := range queue {
		seen[r.ID] = true
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		incident := g.proc.Out[cur.Node]
		if reverse {
			incident = g.proc.In[cur.Node]
		}
		for _, ei := range incident {
			ce := g.proc.Edges[ei]
			far := ce.To
			if reverse {
				far = ce.From
			}
			for _, r2 := range g.at[far] {
				if seen[r2.ID] {
					continue
				}
				from, to := cur, r2
				if reverse {
					from, to = r2, cur
				}
				if e := g.Edge(ei, from, to); e.Elim || !g.isOpen(m, e) {
					continue
				}
				seen[r2.ID] = true
				queue = append(queue, r2)
			}
		}
	}
	return seen
}

// SweepPending clears the pending mark of every edge whose question SUMDB
// can now answer, reopening those call edges for the frontier machinery.
// Edges are asked in (CFG edge, source, destination) order.
func (g *Graph) SweepPending(db punch.DB) {
	var pend []*Edge
	for _, regs := range g.at {
		for _, r := range regs {
			for _, e := range r.edges {
				if e.From == r && e.Pending != nil {
					pend = append(pend, e)
				}
			}
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		a, b := pend[i], pend[j]
		if a.CFG != b.CFG {
			return a.CFG < b.CFG
		}
		return pair(a.From, a.To) < pair(b.From, b.To)
	})
	for _, e := range pend {
		if _, verdict := db.Answer(*e.Pending); verdict != 0 {
			e.Pending = nil
		}
	}
}

// Check walks the whole table and reports the first violation of its
// invariants: partitions hold only live regions of their own node; every
// entry joins two regions that are in their partitions and is listed
// exactly once at each of them; endpoint lists hold nothing else; no call
// edge is shut (only a simple statement's pre-image shuts an edge, and a
// split hands the mark to edges over the same statement). Tests call it
// after every split.
func (g *Graph) Check() error {
	member := map[*Region]bool{}
	listed := 0
	for n, regs := range g.at {
		for _, r := range regs {
			if r.retired || r.Node != cfg.NodeID(n) || member[r] {
				return fmt.Errorf("regions: partition of n%d holds R%d (retired=%v, node n%d, twice=%v)", n, r.ID, r.retired, r.Node, member[r])
			}
			member[r] = true
		}
	}
	for r := range member {
		at := map[*Edge]bool{}
		for _, e := range r.edges {
			if g.edges[e.CFG][pair(e.From, e.To)] != e || (e.From != r && e.To != r) || at[e] {
				return fmt.Errorf("regions: R%d lists %v, which is not its table entry (or is listed twice)", r.ID, e)
			}
			at[e] = true
		}
		listed += len(r.edges)
	}
	want := 0
	for ci, m := range g.edges {
		for k, e := range m {
			if e.CFG != ci || k != pair(e.From, e.To) || !member[e.From] || !member[e.To] {
				return fmt.Errorf("regions: entry %d/%#x (record %v) mentions a region outside the partitions", ci, uint64(k), e)
			}
			if _, isCall := g.proc.Edges[ci].Stmt.(lang.Call); isCall && e.open < 0 {
				return fmt.Errorf("regions: call edge %v is shut", e)
			}
			want += 2
			if e.From == e.To {
				want--
			}
		}
	}
	if listed != want {
		return fmt.Errorf("regions: endpoint lists hold %d entries, the table accounts for %d", listed, want)
	}
	return nil
}
