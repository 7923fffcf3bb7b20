// Package regions holds the over-approximating half of a verification
// object: the region graph of one procedure, shared by the may and the
// may-must instantiations of PUNCH. Every control location carries a
// partition of its state space into regions (the may-map Σ of §4); an
// abstract edge is a CFG edge with a source and a destination region. It is
// either live — one edge record, listed at its source and its destination,
// holding what the analyses know about it (one-step feasible, stuck,
// waiting for a child sub-query, how often one was tried) — or dead
// (eliminated, the set Ē, or found one-step infeasible) and without a
// record: the searches walk the lists, live edges only.
//
// Refinement splits a region into parts. Each part denotes a subset of the
// region, so it gets an edge, with the region's marks, where the region had
// a live one and none where it had none; the region is retired and its
// records unlinked: no list ever mentions a region outside the partitions.
//
// The graph owns its memory. Regions live in chunks the graph keeps,
// resolved by ID; an edge record lives in chunks of pointer-free records,
// named by an EdgeID, its regions by ID. A region's list over one incident
// CFG edge is a thread through the records of its edges, whose head sits
// in one pointer-free slab of the graph. So neither a region nor a list
// is an allocation of its own, and the collector has nothing to scan in
// the records and the lists, however many edges a refinement makes. A
// region's heads form one block of the slab, as many as its node has
// incident CFG edges; a split gives the retired region's block back to its
// node, and the next region minted there takes it before the slab grows.
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
	ID int32
	// lists is the offset in Graph.heads of the heads of r's lists: the
	// live abstract edges over the i-th outgoing CFG edge of Node at
	// lists+i, over the i-th incoming one at lists+len(proc.Out[Node])+i.
	// Each list is always a subsequence of the far node's partition: a
	// search meets the far regions in partition order. Once r is retired
	// the block is its node's to hand out again (Graph.free).
	lists int32
	Node  cfg.NodeID
	F     logic.Formula
	// Target marks regions descending from the initial φ2-region at exit.
	Target bool

	retired bool
}

// Live reports whether r is still a member of its node's partition.
func (r *Region) Live() bool { return !r.retired }

// EdgeID names the record of an abstract edge in its graph; 0 names none.
// A record is never reused for another edge: a path may still hold an ID
// after a split or Kill unlinked its edge, and reads the edge it had.
type EdgeID int32

// edge is the record of one abstract edge. It holds no pointer, so chunks
// of records are memory the collector does not scan: cfg indexes the
// procedure's Edges, from and to are region IDs.
type edge struct {
	cfg, from, to int32
	// next[out] follows the record in its source's list, next[in] in its
	// destination's; 0 ends a list.
	next [2]EdgeID
	// marks holds the stuck, open and asked bits and, above them, the
	// attempt count.
	marks uint32
}

// The bits of edge.marks: stuck, the analysis has given up advancing
// across the edge; open, the one-step feasibility check was made and
// passed; asked, the edge waits for a child's answer, whose question
// Graph.asked holds (the searches read this bit, never the map). The
// attempt count, child sub-queries (or inexact refinements) tried, takes
// the bits above them and stays at maxAttempts once there.
const (
	stuckBit = 1 << iota
	openBit
	askedBit
	attemptShift = iota
	maxAttempts  = 1<<(32-attemptShift) - 1
)

func (r *edge) stuck() bool   { return r.marks&stuckBit != 0 }
func (r *edge) open() bool    { return r.marks&openBit != 0 }
func (r *edge) asked() bool   { return r.marks&askedBit != 0 }
func (r *edge) attempts() int { return int(r.marks >> attemptShift) }

// head is a list's first and last record, 0 and 0 for an empty list.
type head struct{ first, last EdgeID }

// Regions and records live in chunks of chunkLen, which never move, so
// that a *Region stays valid and the index inside a chunk needs no bounds
// check.
const chunkBits = 6
const chunkLen = 1 << chunkBits

// Step is what the analyses read of an abstract edge: its CFG edge and its
// two regions, which stay resolvable after a split retired them. Writes go
// through the graph: Attempt, SetStuck, SetPending, Kill.
type Step struct {
	ID       EdgeID
	CFG      int // index into the procedure's Edges
	From, To *Region
}

func (s Step) String() string { return fmt.Sprintf("e%d:R%d→R%d", s.CFG, s.From.ID, s.To.ID) }

// Graph is the region graph of one procedure and postcondition: built for
// one query, and handed on through a punch.Shelf to the next query with
// the same two when the first is Done (Take, Shelve).
type Graph struct {
	proc     *cfg.Proc
	post     logic.ID                     // the postcondition's interned id, the shelf key with proc
	regs     []*[chunkLen]Region          // the regions, retired ones included; ID r is regs[r/chunkLen][r%chunkLen]
	nRegions int32                        // regions handed out
	at       [][]*Region                  // node → partition; order is part of the trajectory
	slot     [][2]int32                   // CFG edge → the offset of its list head among its source's heads, its destination's
	chunks   records                      // the records
	nEdges   int32                        // records handed out, the unused record 0 included
	heads    []head                       // every region's list heads, at Region.lists
	free     []int32                      // node → 1 + the offset of a free block of heads, 0 for none; see NewRegion
	asked    map[EdgeID]*summary.Question // the live edges with a question

	// Search scratch; seen, via and reach (per direction) go by region ID.
	seen  []bool
	via   []EdgeID
	queue []*Region
	reach [2][]bool
	path  []EdgeID // FindPath's result
}

// New returns the initial graph for the question "can proc exit in post":
// the exit location is partitioned into {post, ¬post}, every other
// location starts with the single region ⊤ (§4), and every pair of regions
// across a CFG edge is a live abstract edge.
func New(proc *cfg.Proc, post logic.Formula) *Graph {
	g := &Graph{proc: proc, post: logic.KeyID(post), at: make([][]*Region, proc.NNodes), slot: make([][2]int32, len(proc.Edges)), free: make([]int32, proc.NNodes), nEdges: 1, asked: map[EdgeID]*summary.Question{}}
	g.heads = make([]head, 0, 2*len(proc.Edges)+len(proc.Out[proc.Exit])+len(proc.In[proc.Exit])) // one list per CFG edge end, the exit's twice
	for n := range g.at {
		for i, ei := range proc.Out[n] {
			g.slot[ei][out] = int32(i)
		}
		for i, ei := range proc.In[n] {
			g.slot[ei][in] = int32(len(proc.Out[n]) + i)
		}
		node := cfg.NodeID(n)
		if node == proc.Exit {
			g.at[n] = []*Region{g.NewRegion(node, post, true), g.NewRegion(node, logic.Not(post), false)}
		} else {
			g.at[n] = []*Region{g.NewRegion(node, logic.True, false)}
		}
	}
	for ei, ce := range proc.Edges {
		for _, from := range g.at[ce.From] {
			for _, to := range g.at[ce.To] {
				g.link(ei, from, to)
			}
		}
	}
	return g
}

// Take returns the graph an earlier query of proc and post left on shelf,
// or New(proc, post) when the shelf has none. A taken graph keeps its
// partitions, its live edges and their open marks: every edge it lacks was
// removed by a fact that holds for every entry state — a one-step check, a
// pre-image split, the frame rule or a not-may summary in SUMDB — so it
// serves any precondition. What belonged to the query that left it is
// cleared: the questions its edges waited on, their stuck marks and
// attempt counts. Taking a shelved graph allocates nothing.
func Take(shelf *punch.Shelf, proc *cfg.Proc, post logic.Formula) *Graph {
	g, ok := shelf.Take(proc.Name, logic.KeyID(post)).(*Graph)
	if !ok {
		return New(proc, post)
	}
	clear(g.asked)
	for e := EdgeID(1); int32(e) < g.nEdges; e++ {
		g.rec(e).marks &= openBit
	}
	auditHand(g, true)
	return g
}

// Shelve hands g to the next query of its procedure and postcondition; the
// caller must not touch it again.
func (g *Graph) Shelve(shelf *punch.Shelf) {
	auditHand(g, false)
	shelf.Put(g.proc.Name, g.post, g)
}

// Hold is the place of a region graph in a verification object: the
// query's first Step fills it (New or Take), and Shelve, which
// punch.Stepper.Finish calls once the query is Done, empties it.
type Hold struct{ G *Graph }

// Shelve hands the held graph, if any, on to the next query of its
// procedure and postcondition: the refinement outlives the query.
func (h *Hold) Shelve(shelf *punch.Shelf) {
	if h.G != nil {
		h.G.Shelve(shelf)
		h.G = nil
	}
}

// At returns the partition of node n. The slice is the graph's own.
func (g *Graph) At(n cfg.NodeID) []*Region { return g.at[n] }

// NewRegion mints a region that is not yet part of any partition; Split
// puts it there. Its block of list heads is one a split at node gave back
// when there is one, else the slab grows by a block. The free blocks of a
// node form a stack threaded through the blocks: free[node] is 1 + the
// offset of the top one, whose first head's first field holds the same of
// the one below it (0 ends the stack); the rest of a free block is empty.
func (g *Graph) NewRegion(node cfg.NodeID, f logic.Formula, target bool) *Region {
	n := g.blockLen(node)
	if g.nRegions == math.MaxInt32 || len(g.heads) > math.MaxInt32-n {
		panic("regions: region IDs exhausted")
	}
	if int(g.nRegions>>chunkBits) == len(g.regs) {
		g.regs = append(g.regs, new([chunkLen]Region))
	}
	lists := len(g.heads)
	if top := g.free[node]; top != 0 {
		lists = int(top - 1)
		g.free[node] = int32(g.heads[lists].first)
		g.heads[lists] = head{}
	} else {
		g.heads = slices.Grow(g.heads, n)[:lists+n]
		clear(g.heads[lists:])
	}
	r := g.region(g.nRegions)
	*r = Region{ID: g.nRegions, lists: int32(lists), Node: node, F: f, Target: target}
	g.nRegions++
	return r
}

// blockLen is the number of heads in the block of a region at node n: one
// per incident CFG edge.
func (g *Graph) blockLen(n cfg.NodeID) int { return len(g.proc.Out[n]) + len(g.proc.In[n]) }

// region returns the region with ID id, which the graph has handed out.
func (g *Graph) region(id int32) *Region { return &g.regs[id>>chunkBits][id&(chunkLen-1)] }

// records are the chunks of a graph's edge records; EdgeID e is
// records[e/chunkLen][e%chunkLen].
type records []*[chunkLen]edge

// at returns the record of e, which the graph has handed out.
func (c records) at(e EdgeID) *edge { return &c[e>>chunkBits][e&(chunkLen-1)] }

// rec returns the record of e, which the graph has handed out.
func (g *Graph) rec(e EdgeID) *edge { return g.chunks.at(e) }

// must returns the record of e for an accessor: e = 0, no edge, is a bug
// in the caller, as a nil record was.
func (g *Graph) must(e EdgeID) *edge {
	if e <= 0 || int32(e) >= g.nEdges {
		panic(fmt.Sprintf("regions: no abstract edge %d", e))
	}
	return g.rec(e)
}

// listsOf returns the heads of r's lists in direction dir, one per CFG
// edge of proc.Out[r.Node] (or proc.In), in that order. The slice is the
// graph's own.
func (g *Graph) listsOf(r *Region, dir int) []head {
	lo, hi := r.lists, r.lists+int32(len(g.proc.Out[r.Node]))
	if dir == in {
		lo, hi = hi, hi+int32(len(g.proc.In[r.Node]))
	}
	return g.heads[lo:hi:hi]
}

// headOf returns the head of r's list over CFG edge cfgEdge in direction
// dir.
func (g *Graph) headOf(r *Region, cfgEdge int32, dir int) *head {
	return &g.heads[r.lists+g.slot[cfgEdge][dir]]
}

// list returns the head of the list that holds e at its end in direction
// dir.
func (g *Graph) list(e EdgeID, dir int) *head {
	r := g.rec(e)
	return g.headOf(g.region([2]int32{r.from, r.to}[dir]), r.cfg, dir)
}

// link makes from → to over CFG edge cfgEdge live: a blank record, the
// next one of the last chunk, at the end of both of its lists.
func (g *Graph) link(cfgEdge int, from, to *Region) EdgeID {
	if g.nEdges == math.MaxInt32 {
		panic("regions: edge IDs exhausted")
	}
	if int(g.nEdges>>chunkBits) == len(g.chunks) {
		g.chunks = append(g.chunks, new([chunkLen]edge))
	}
	e := EdgeID(g.nEdges)
	g.nEdges++
	*g.rec(e) = edge{cfg: int32(cfgEdge), from: from.ID, to: to.ID}
	for dir, end := range [2]*Region{from, to} {
		h := g.headOf(end, int32(cfgEdge), dir)
		if h.last == 0 {
			h.first = e
		} else {
			g.rec(h.last).next[dir] = e
		}
		h.last = e
	}
	return e
}

// unlink takes e out of the list h, whose records are threaded through
// next[dir]; prev is the record before e, 0 when e is the first.
func (g *Graph) unlink(h *head, prev, e EdgeID, dir int) {
	next := g.rec(e).next[dir]
	if prev == 0 {
		h.first = next
	} else {
		g.rec(prev).next[dir] = next
	}
	if h.last == e {
		h.last = prev
	}
}

// drop removes e from the list at its end in direction dir, if it is
// there, keeping the order of the rest: a swap-remove would change the
// order in which a later search meets the far regions, and with it what
// that search evaluates and finds first.
func (g *Graph) drop(e EdgeID, dir int) {
	h, recs := g.list(e, dir), g.chunks
	for prev, id := EdgeID(0), h.first; id != 0; prev, id = id, recs.at(id).next[dir] {
		if id == e {
			g.unlink(h, prev, e, dir)
			return
		}
	}
}

// Out appends to buf the live abstract edges from from over CFG edge
// cfgEdge, in the partition order of their destinations, and returns it.
func (g *Graph) Out(cfgEdge int, from *Region, buf []EdgeID) []EdgeID {
	for e := g.headOf(from, int32(cfgEdge), out).first; e != 0; e = g.rec(e).next[out] {
		buf = append(buf, e)
	}
	return buf
}

// Edge returns the abstract edge from → to over CFG edge cfgEdge, 0 when
// the edge is dead.
func (g *Graph) Edge(cfgEdge int, from, to *Region) EdgeID {
	if ce := g.proc.Edges[cfgEdge]; from.retired || to.retired || ce.From != from.Node || ce.To != to.Node {
		panic(fmt.Sprintf("regions: abstract edge e%d:R%d→R%d on a retired region or off its CFG edge", cfgEdge, from.ID, to.ID))
	}
	for e := g.headOf(from, int32(cfgEdge), out).first; e != 0; e = g.rec(e).next[out] {
		if g.rec(e).to == to.ID {
			return e
		}
	}
	return 0
}

// Step returns what the analyses read of e.
func (g *Graph) Step(e EdgeID) Step {
	r := g.must(e)
	return Step{ID: e, CFG: int(r.cfg), From: g.region(r.from), To: g.region(r.to)}
}

// Attempt counts one more child sub-query (or inexact refinement) tried
// across e and returns the count.
func (g *Graph) Attempt(e EdgeID) int {
	r := g.must(e)
	if r.attempts() < maxAttempts {
		r.marks += 1 << attemptShift
	}
	return r.attempts()
}

// SetStuck records that the analysis has given up advancing across e.
func (g *Graph) SetStuck(e EdgeID) { g.must(e).marks |= stuckBit }

// Blocked reports whether e is stuck or waits for a child's answer: an
// edge an actionable search does not follow.
func (g *Graph) Blocked(e EdgeID) bool { return g.must(e).marks&(stuckBit|askedBit) != 0 }

// Kill eliminates e (puts it into Ē): proven infeasible, it leaves both its
// lists for good. No edge (0), a dead one and one whose region was split in
// the meantime are left alone.
func (g *Graph) Kill(e EdgeID) {
	if e == 0 {
		return
	}
	if r := g.must(e); g.region(r.from).retired || g.region(r.to).retired {
		return
	}
	g.drop(e, out)
	g.drop(e, in)
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
func (g *Graph) SetPending(e EdgeID, q *summary.Question) {
	r := g.must(e)
	if q != nil {
		g.asked[e] = q
		r.marks |= askedBit
	} else if r.asked() {
		delete(g.asked, e)
		r.marks &^= askedBit
	}
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
// Once the parts' records are linked, r's lists are emptied and its block
// of heads goes to its node's free blocks: no walk meets a list of a
// retired region, and the next region minted at the node holds the block.
func (g *Graph) Split(r *Region, parts ...*Region) {
	g.at[r.Node] = append(slices.DeleteFunc(g.at[r.Node], func(x *Region) bool { return x == r }), parts...)
	r.retired = true
	var far [1]*Region
	for pass, dir := range [3]int{out, in, out} { // to others, from others, self-loops
		for _, h := range g.listsOf(r, dir) {
			for id := h.first; id != 0; id = g.rec(id).next[dir] {
				e := g.rec(id)
				froms, tos := parts, parts
				switch {
				case (e.from == e.to) != (pass == 2):
					continue
				case e.from != r.ID:
					far[0] = g.region(e.from)
					froms = far[:]
					g.drop(id, out)
				case e.to != r.ID:
					far[0] = g.region(e.to)
					tos = far[:]
					g.drop(id, in)
				}
				var q *summary.Question
				if e.asked() {
					q = g.asked[id]
					g.SetPending(id, nil)
				}
				for _, f := range froms {
					for _, t := range tos {
						n := g.link(int(e.cfg), f, t)
						g.rec(n).marks = e.marks &^ (openBit | askedBit)
						if q != nil {
							g.SetPending(n, q)
						}
					}
				}
			}
		}
	}
	clear(g.listsOf(r, out))
	clear(g.listsOf(r, in))
	if g.blockLen(r.Node) > 0 {
		g.heads[r.lists].first = EdgeID(g.free[r.Node])
		g.free[r.Node] = r.lists + 1
	}
	auditSplit(g)
}

// auditSplit and auditStep are shown the graph after every split and every
// edge whose one-step check is about to be made, auditHand every graph
// Take hands out of a shelf (taken) and Shelve puts on one; tests replace
// them.
var auditSplit, auditStep, auditHand = func(*Graph) {}, func(*Graph, EdgeID) {}, func(*Graph, bool) {}

// PartitionOn replaces region r by conjunctive cube regions partitioning
// it along wp, returning the parts inside wp and outside it. Keeping every
// region a small conjunction is what stops refinement formulas from
// snowballing across splits; when DNF expansion is infeasible the fallback
// is a plain binary split. ins and outs share one slice, the parts in
// order; ins is capped at its length.
func (g *Graph) PartitionOn(m *punch.Meter, r *Region, wp logic.Formula) (ins, outs []*Region) {
	var parts []*Region
	mk := func(f logic.Formula) {
		// Past 32 cubes EachCube yields nothing, so no cube region is
		// minted before the plain split.
		if logic.EachCube(f, 32, func(c logic.Cube) bool {
			m.Charge(4)
			cf := m.Solver.Simplify(c.Formula())
			if sr := m.Sat(cf); !sr.Known || sr.Sat {
				parts = append(parts, g.NewRegion(r.Node, cf, r.Target))
			}
			return true
		}) {
			return
		}
		m.Charge(8)
		s := m.Solver.Simplify(f)
		if sr := m.Sat(s); sr.Known && !sr.Sat {
			return
		}
		parts = append(parts, g.NewRegion(r.Node, s, r.Target))
	}
	mk(logic.Conj(r.F, wp))
	n := len(parts)
	mk(logic.Conj(r.F, logic.Not(wp)))
	g.Split(r, parts...)
	return parts[:n:n], parts[n:]
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

// FrameSplit refines the call edge s (s.To the destination it is refined
// against) by the frame rule: the callee changes only the globals mod
// holds, so a caller state that lands in s.To already lies, before the
// call, in s.To with those globals forgotten (wf). When no state of s.From
// is in wf the edge is killed; when some are and some are not, s.From is
// split on wf and the edge eliminated from the parts outside it. It
// reports whether it refined the graph.
func (g *Graph) FrameSplit(m *punch.Meter, s Step, globals []lang.Var, mod *cfg.ModRef) bool {
	var modG []lang.Var
	for _, v := range globals {
		if mod.Mod[v] {
			modG = append(modG, v)
		}
	}
	m.Charge(6)
	wf, _ := logic.Exists(s.To.F, modG, logic.Over)
	if r := m.Sat(logic.Conj(s.From.F, wf)); r.Known && !r.Sat {
		g.Kill(s.ID)
		return true
	}
	if r := m.Sat(logic.Conj(s.From.F, logic.Not(wf))); r.Known && r.Sat {
		_, outs := g.PartitionOn(m, s.From, wf)
		g.Eliminate(s.CFG, outs, s.To)
		return true
	}
	return false
}

// SummarySplit refines the call edge s by the first not-may summary of
// callee in db whose postcondition covers post, the question's about
// s.To, and whose precondition meets s.From: the edge is killed when the
// precondition holds all of s.From, and eliminated from the parts of s.From
// inside it when it holds some. It reports whether it refined the graph,
// and how many summaries it tested against s.From.
func (g *Graph) SummarySplit(m *punch.Meter, db punch.DB, callee string, post logic.Formula, s Step) (refined bool, tested int64) {
	for _, sum := range db.ForProc(callee) {
		if sum.Kind != summary.NotMay || !m.Implies(post, sum.Post) {
			continue
		}
		tested++
		if r := m.Sat(logic.Conj(s.From.F, sum.Pre)); r.Known && !r.Sat {
			continue
		}
		if r := m.Sat(logic.Conj(s.From.F, logic.Not(sum.Pre))); r.Known && !r.Sat {
			g.Kill(s.ID)
			return true, tested
		}
		ins, _ := g.PartitionOn(m, s.From, sum.Pre)
		g.Eliminate(s.CFG, ins, s.To)
		return true, tested
	}
	return false, tested
}

// MaxPreSize bounds the formula size of a precondition the analyses
// derive rather than take from a question: a child question's
// over-projected precondition and a widened not-may precondition.
const MaxPreSize = 160

// ProvedPre returns the precondition a not-may summary claims once
// FindPath(m, pre, false) has found no abstract error path: no edge is
// eliminated for pre's sake, only per region, so every state of the whole
// entry regions the search started from is safe. The entry regions
// partition every entry state, so those meeting pre hold it. A caller in
// global state s is safe when the callee's non-globals (its locals,
// uninitialised on entry) put s into one of them whatever their values:
// when the regions mention a non-global, the result is the universal
// projection ∀ non-globals. ∨ regions, taken as ¬∃ non-globals. ¬∨ regions
// with the over-approximating shadow, which under-approximates it. The
// plain ∃-projection would claim states where some local value leads out
// of the regions. The projection can lose states of pre, so it is kept
// only when the solver shows pre inside it, pre ∨ projection when not. A
// result larger than MaxPreSize gives way to pre.
func (g *Graph) ProvedPre(m *punch.Meter, pre logic.Formula, globals []lang.Var) logic.Formula {
	queue := g.entryRegions(m, pre, g.queue)
	covered := make([]logic.Formula, len(queue))
	for i, r := range queue {
		covered[i] = r.F
	}
	g.queue = queue[:0]
	proved := logic.Disj(covered...)
	if locals := punch.NonGlobals(proved, globals); len(locals) > 0 {
		m.Charge(6)
		escape, _ := logic.Exists(logic.Not(proved), locals, logic.Over)
		proved = logic.Not(escape)
		if logic.Size(proved) > MaxPreSize {
			return pre
		}
		if !m.Implies(pre, proved) {
			proved = logic.Disj(pre, proved)
		}
	}
	if logic.Size(proved) > MaxPreSize {
		return pre
	}
	return proved
}

// isOpen makes the one-step semantic feasibility check of e, whose record
// is r and has not had it, and caches that it passed: a simple edge ρ→ρ' is
// shut when ρ ∧ pre(stmt, ρ') is unsatisfiable — a sound elimination
// without an explicit split; the search that finds it unlinks the edge.
// Call edges are open until a summary eliminates them. The check costs
// what building the pre-image (2) and a satisfiability check (4) cost,
// also when the run's solver has met the same triple before and answers
// from its memo.
func (g *Graph) isOpen(m *punch.Meter, e EdgeID, r *edge) bool {
	ce := &g.proc.Edges[r.cfg]
	if _, isCall := ce.Stmt.(lang.Call); !isCall {
		auditStep(g, e)
		m.Charge(2 + 4)
		if !m.Solver.StepFeasible(ce.StmtID, ce.Stmt, g.region(r.from).F, g.region(r.to).F) {
			return false
		}
	}
	r.marks |= openBit
	return true
}

// search runs breadth-first from the regions in queue over the live edges,
// along them (dir out) or against them (dir in), marking what it reaches in
// seen and, when via is not nil, through which edge; with via it stops at
// the first target region at exit and returns it. With avoid set, edges
// pending a child answer or stuck are not followed. An edge to a region not
// reached yet that the one-step check finds shut is unlinked on the spot.
func (g *Graph) search(m *punch.Meter, queue []*Region, seen []bool, via []EdgeID, avoid bool, dir int) *Region {
	for _, r := range queue {
		seen[r.ID] = true
	}
	recs := g.chunks // a search hands out no record
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if via != nil && cur.Target && cur.Node == g.proc.Exit {
			g.queue = queue[:0]
			return cur
		}
		lists := g.listsOf(cur, dir)
		for slot := range lists {
			h := &lists[slot]
			for prev, id := EdgeID(0), h.first; id != 0; {
				e := recs.at(id)
				next, far := e.next[dir], e.to
				if dir == in {
					far = e.from
				}
				switch {
				case seen[far]:
				case avoid && e.marks&(stuckBit|askedBit) != 0:
				case !e.open() && !g.isOpen(m, id, e):
					g.drop(id, 1-dir)
					g.SetPending(id, nil)
					g.unlink(h, prev, id, dir)
					id = next
					continue
				default:
					seen[far] = true
					if via != nil {
						via[far] = id
					}
					queue = append(queue, g.region(far))
				}
				prev, id = id, next
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
// The result, nil when there is none, is the graph's, good until the next
// FindPath: once its scratch has grown to the graph, a search allocates
// nothing.
func (g *Graph) FindPath(m *punch.Meter, pre logic.Formula, avoid bool) []EdgeID {
	n := int(g.nRegions)
	g.seen = slices.Grow(g.seen[:0], n)[:n]
	g.via = slices.Grow(g.via[:0], n)[:n]
	clear(g.seen)
	clear(g.via)
	end := g.search(m, g.entryRegions(m, pre, g.queue), g.seen, g.via, avoid, out)
	if end == nil {
		return nil
	}
	steps := 0
	for e := g.via[end.ID]; e != 0; e = g.via[g.rec(e).from] {
		steps++
	}
	g.path = slices.Grow(g.path[:0], steps+1)[:steps] // never nil: a path of no steps is a path
	for e := g.via[end.ID]; e != 0; e = g.via[g.rec(e).from] {
		steps--
		g.path[steps] = e
	}
	return g.path
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
	n := int(g.nRegions)
	g.reach[dir] = slices.Grow(g.reach[dir][:0], n)[:n]
	clear(g.reach[dir])
	g.search(m, queue, g.reach[dir], nil, false, dir)
	return g.reach[dir]
}

// SweepPending clears the pending mark of every edge whose question SUMDB
// can now answer, reopening those call edges for the frontier machinery.
// Edges are asked in (CFG edge, source, destination) order.
func (g *Graph) SweepPending(db punch.DB) {
	if len(g.asked) == 0 {
		return
	}
	ids := make([]EdgeID, 0, len(g.asked))
	for e := range g.asked {
		ids = append(ids, e)
	}
	slices.SortFunc(ids, func(a, b EdgeID) int {
		ra, rb := g.rec(a), g.rec(b)
		return cmp.Or(cmp.Compare(ra.cfg, rb.cfg), cmp.Compare(ra.from, rb.from), cmp.Compare(ra.to, rb.to))
	})
	for _, e := range ids {
		if _, verdict := db.Answer(*g.asked[e]); verdict != 0 {
			g.SetPending(e, nil)
		}
	}
}

// Check walks the whole graph and reports the first violation of its
// invariants: partitions hold only live regions of their own node; every
// list holds handed-out edges over its own CFG edge from (or to) its own
// region, in the order of the far partition — so the far end is live —
// each also in the matching list at its far end, with its asked bit set
// exactly when the graph holds a question for it, and ends where its head
// says; every region that is not retired holds a block of heads of its
// own, and a retired region's block is either on its node's stack of free
// blocks, empty but for the stack's link, or held by exactly one region of
// its node that is not retired, never both; every question belongs to a
// listed edge. Tests call it after every split. ("No call edge is shut" has no
// record left to read: isOpen evaluates none, and the tests' audit of
// absent pairs skips call statements.)
func (g *Graph) Check() error {
	for n, regs := range g.at {
		for i, r := range regs {
			if r.retired || r.Node != cfg.NodeID(n) || slices.Contains(regs[:i], r) || r.ID < 0 || r.ID >= g.nRegions || g.region(r.ID) != r {
				return fmt.Errorf("regions: partition of n%d holds R%d (retired=%v, node n%d, twice, or not the graph's)", n, r.ID, r.retired, r.Node)
			}
			for dir, incident := range [2][]int{g.proc.Out[n], g.proc.In[n]} {
				lists := g.listsOf(r, dir)
				for slot, ci := range incident {
					order := g.at[[2]cfg.NodeID{g.proc.Edges[ci].To, g.proc.Edges[ci].From}[dir]]
					last := EdgeID(0)
					for id := lists[slot].first; id != 0; id = g.rec(id).next[dir] {
						if id <= 0 || int32(id) >= g.nEdges {
							return fmt.Errorf("regions: R%d lists edge %d under CFG edge %d, outside [1, %d)", r.ID, id, ci, g.nEdges)
						}
						e := g.rec(id)
						ends := [2]int32{e.from, e.to}
						i := slices.Index(order, g.region(ends[1-dir]))
						if int(e.cfg) != ci || ends[dir] != r.ID || i < 0 || !g.listed(id, 1-dir) {
							return fmt.Errorf("regions: R%d lists %v under CFG edge %d: not its own, out of partition order (or twice, or to a retired region), or not listed at the far end", r.ID, g.Step(id), ci)
						}
						order = order[i+1:]
						if q, ok := g.asked[id]; e.asked() != ok || ok && q == nil {
							return fmt.Errorf("regions: %v has its asked bit %v and question %v", g.Step(id), e.asked(), q)
						}
						last = id
					}
					if lists[slot].last != last {
						return fmt.Errorf("regions: the list of R%d under CFG edge %d ends at edge %d, its head says %d", r.ID, ci, last, lists[slot].last)
					}
				}
			}
		}
	}
	if err := g.checkBlocks(); err != nil {
		return err
	}
	for id := range g.asked {
		if id <= 0 || int32(id) >= g.nEdges || g.region(g.rec(id).from).retired || !g.listed(id, out) {
			return fmt.Errorf("regions: a question is held for edge %d, which is not listed", id)
		}
	}
	return nil
}

// checkBlocks is Check's part on the blocks of list heads.
func (g *Graph) checkBlocks() error {
	holder := map[int32]int32{} // block offset → the region, not retired, that holds it
	for id := int32(0); id < g.nRegions; id++ {
		if r := g.region(id); !r.retired && g.blockLen(r.Node) > 0 {
			if h, ok := holder[r.lists]; ok {
				return fmt.Errorf("regions: R%d and R%d hold one block of heads", h, id)
			}
			holder[r.lists] = id
		}
	}
	free := map[int32]cfg.NodeID{} // free block offset → its node
	for n, top := range g.free {
		for ; top != 0; top = int32(g.heads[top-1].first) {
			at, k := top-1, int32(g.blockLen(cfg.NodeID(n)))
			if _, twice := free[at]; at < 0 || k == 0 || int(at+k) > len(g.heads) || twice {
				return fmt.Errorf("regions: the free blocks of n%d hold offset %d twice, or outside the slab", n, at)
			}
			if h, ok := holder[at]; ok {
				return fmt.Errorf("regions: the block of R%d is on the free blocks of n%d", h, n)
			}
			if block := g.heads[at : at+k]; block[0].last != 0 || slices.ContainsFunc(block[1:], isListed) {
				return fmt.Errorf("regions: free block %d of n%d keeps a list", at, n)
			}
			free[at] = cfg.NodeID(n)
		}
	}
	retired := map[int32]cfg.NodeID{} // retired block offset → its node
	for id := int32(0); id < g.nRegions; id++ {
		r := g.region(id)
		if !r.retired || g.blockLen(r.Node) == 0 {
			continue
		}
		retired[r.lists] = r.Node
		_, isFree := free[r.lists]
		if h, ok := holder[r.lists]; !isFree && (!ok || g.region(h).Node != r.Node) {
			return fmt.Errorf("regions: the block of retired R%d is neither free nor held by a region of n%d", id, r.Node)
		}
	}
	for at, n := range free {
		if m, ok := retired[at]; !ok || m != n {
			return fmt.Errorf("regions: free block %d of n%d was no retired region's there", at, n)
		}
	}
	return nil
}

// isListed reports whether h heads a list.
func isListed(h head) bool { return h != head{} }

// listed reports whether e is in the list at its end in direction dir. A
// walk longer than the records handed out stops: the list has a cycle.
func (g *Graph) listed(e EdgeID, dir int) bool {
	n := int32(0)
	for id := g.list(e, dir).first; id != 0 && n < g.nEdges; id, n = g.rec(id).next[dir], n+1 {
		if id == e {
			return true
		}
	}
	return false
}
