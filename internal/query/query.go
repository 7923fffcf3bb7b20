// Package query implements reachability queries and their lifecycle — the
// Ready/Blocked/Done state machine of Fig. 2(b) — plus the query-tree
// bookkeeping the REDUCE stage needs (parents, descendants).
package query

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/summary"
)

// State is a query's lifecycle state.
type State int

// Query states (Fig. 2(b)).
const (
	Ready State = iota
	Blocked
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "Ready"
	case Blocked:
		return "Blocked"
	case Done:
		return "Done"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ID identifies a query. The root query has parent NoParent.
type ID int64

// NoParent marks the root query.
const NoParent ID = -1

// Outcome records how a Done query was answered.
type Outcome int

// Outcomes of a Done query.
const (
	// Pending: the query is not Done.
	Pending Outcome = iota
	// Reachable: answered by a must summary — an execution reaches Post.
	Reachable
	// Unreachable: answered by a not-may summary — no execution reaches
	// Post.
	Unreachable
)

func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Reachable:
		return "reachable"
	case Unreachable:
		return "unreachable"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Query is the 4-tuple (q_i, s_i, p_i, O_i) of §3.1: a reachability
// question, a state, a parent index, and the analysis-specific
// verification object.
type Query struct {
	ID     ID
	Parent ID
	// Q is the reachability question (φ1 ⇒?_P φ2).
	Q summary.Question
	// State is the lifecycle state; owned by the engine between PUNCH
	// calls and by PUNCH during one.
	State State
	// Outcome is set when State becomes Done.
	Outcome Outcome
	// Obj is the verification object O_i: the saved intraprocedural
	// analysis state (must-map, may-map, eliminated edges, …) so PUNCH can
	// resume where it stopped. Its concrete type belongs to the PUNCH
	// instantiation.
	Obj any
}

func (q *Query) String() string {
	return fmt.Sprintf("Q%d[%s parent=%d] %s", q.ID, q.State, q.Parent, q.Q)
}

// Allocator hands out fresh query IDs; safe for concurrent use by parallel
// PUNCH instances.
type Allocator struct {
	next int64
}

// New returns a fresh query in the Ready state.
func (a *Allocator) New(parent ID, q summary.Question) *Query {
	id := ID(atomic.AddInt64(&a.next, 1) - 1)
	return &Query{ID: id, Parent: parent, Q: q, State: Ready}
}

// Count returns how many IDs have been allocated.
func (a *Allocator) Count() int64 { return atomic.LoadInt64(&a.next) }

// Tree tracks the live query set and the parent/child relation. It is
// used by the engine between MAP stages (single-goroutine at that point,
// so it needs no locking; the async engine serializes access externally).
//
// The tree maintains an incremental index of Ready queries so schedulers
// do not rescan every live query per iteration. The index is a superset
// approximation — entries are validated against the query's current state
// on read and pruned lazily — which keeps it correct even when PUNCH
// mutates a query's state in place before the engine calls Replace.
type Tree struct {
	queries  map[ID]*Query
	children map[ID][]ID
	ready    map[ID]*Query // queries Ready at last accounting (lazy superset)
	// waiters maps a query to the additional parents coalesced onto it:
	// queries whose own duplicate child was never allocated and that must
	// be woken when this query's summary lands. waitingOn is the reverse
	// relation, kept in the same tree as the forward edge so Remove can
	// sever both sides. See coalesce.go.
	waiters   map[ID][]ID
	waitingOn map[ID][]ID
	// inflight indexes live queries by canonical question key, first
	// registration wins; inflightKey is the reverse. See coalesce.go.
	inflight    map[string]ID
	inflightKey map[ID]string
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{
		queries:     map[ID]*Query{},
		children:    map[ID][]ID{},
		ready:       map[ID]*Query{},
		waiters:     map[ID][]ID{},
		waitingOn:   map[ID][]ID{},
		inflight:    map[string]ID{},
		inflightKey: map[ID]string{},
	}
}

// Add inserts a query.
func (t *Tree) Add(q *Query) {
	t.queries[q.ID] = q
	if q.Parent != NoParent {
		t.children[q.Parent] = append(t.children[q.Parent], q.ID)
	}
	t.register(q.ID, q.Q.Key())
	t.index(q)
}

// register makes id the in-flight query for key unless a live twin holds
// it already.
func (t *Tree) register(id ID, key string) {
	if _, taken := t.inflight[key]; !taken {
		t.inflight[key] = id
		t.inflightKey[id] = key
	}
}

// index refreshes q's membership in the Ready index.
func (t *Tree) index(q *Query) {
	if q.State == Ready {
		t.ready[q.ID] = q
	} else {
		delete(t.ready, q.ID)
	}
}

// Get returns the query with the given ID, or nil.
func (t *Tree) Get(id ID) *Query { return t.queries[id] }

// Replace swaps in an updated copy of a query returned by PUNCH (same ID).
func (t *Tree) Replace(q *Query) {
	if _, ok := t.queries[q.ID]; !ok {
		panic(fmt.Sprintf("query: Replace of unknown query %d", q.ID))
	}
	t.queries[q.ID] = q
	t.index(q)
}

// SetState transitions a live query to the given state, keeping the Ready
// index current. Engines use this instead of writing State directly.
func (t *Tree) SetState(id ID, s State) {
	q, ok := t.queries[id]
	if !ok {
		return
	}
	q.State = s
	t.index(q)
}

// Deschedule removes a query from the Ready index without changing its
// state. The streaming engine calls it when handing a query to PUNCH:
// while the invocation runs (and may mutate the query in place, outside
// the scheduler lock), index scans must not read the query. Replace or
// SetState re-index it afterwards.
func (t *Tree) Deschedule(id ID) {
	delete(t.ready, id)
}

// Len returns the number of live queries.
func (t *Tree) Len() int { return len(t.queries) }

// Descendants returns the IDs of q and all its transitive children that
// are still live (the image of the transitive closure of the parent-child
// relation, §3.3).
func (t *Tree) Descendants(id ID) []ID {
	var out []ID
	stack := []ID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := t.queries[cur]; !ok {
			continue
		}
		out = append(out, cur)
		stack = append(stack, t.children[cur]...)
	}
	return out
}

// Remove deletes a query (its children entries are cleaned lazily by
// Descendants' liveness check). Waiter edges and the in-flight index
// entry of the removed query are severed eagerly.
func (t *Tree) Remove(id ID) {
	t.Forget(id)
	delete(t.queries, id)
	delete(t.children, id)
	delete(t.ready, id)
}

// MoveTo transfers a live query — with its child-edge, waiter-edge and
// in-flight-index bookkeeping — from t to dst, preserving ID, parent and
// state. The distributed engine's failover uses it to re-route a dead
// node's queries to their new owning shard; carrying the waiter edges is
// what re-registers waiters orphaned by the failure. Reports whether the
// query was present in t.
func (t *Tree) MoveTo(dst *Tree, id ID) bool {
	q, ok := t.queries[id]
	if !ok {
		return false
	}
	kids := t.children[id]
	ws := append([]ID(nil), t.waiters[id]...)
	wo := append([]ID(nil), t.waitingOn[id]...)
	key, registered := t.inflightKey[id]
	t.Remove(id)
	dst.queries[q.ID] = q
	// When a parent and its child move to the same destination, the edge
	// between them would be recorded twice (once carried with the parent's
	// kids, once by the child's own move); dedup keeps Descendants exact.
	if q.Parent != NoParent && !containsID(dst.children[q.Parent], q.ID) {
		dst.children[q.Parent] = append(dst.children[q.Parent], q.ID)
	}
	for _, k := range kids {
		if !containsID(dst.children[id], k) {
			dst.children[id] = append(dst.children[id], k)
		}
	}
	for _, w := range ws {
		dst.AddWaiter(id, w)
	}
	for _, tw := range wo {
		dst.AddWaiter(tw, id)
	}
	if registered {
		dst.register(id, key)
	}
	dst.index(q)
	return true
}

func containsID(ids []ID, id ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// RemoveSubtree removes q and all its live descendants, returning how many
// queries were removed. A descendant with a waiter outside the dying set
// is retained together with its whole subtree: the external waiter still
// needs the summary that branch will produce, so collecting it would
// strand the waiter Blocked forever (the coalescing GC condition).
func (t *Tree) RemoveSubtree(id ID) int {
	ids := t.Descendants(id)
	if len(t.waiters) == 0 {
		for _, d := range ids {
			t.Remove(d)
		}
		return len(ids)
	}
	dying := make(map[ID]bool, len(ids))
	for _, d := range ids {
		dying[d] = true
	}
	// Fixpoint: a retained node's own coalesce targets must survive too
	// (it stays Blocked on them), so retention propagates until stable.
	for changed := true; changed; {
		changed = false
		for d := range dying {
			if !t.hasWaiterOutside(d, dying) {
				continue
			}
			for _, k := range t.Descendants(d) {
				if dying[k] {
					delete(dying, k)
					changed = true
				}
			}
		}
	}
	removed := 0
	for _, d := range ids {
		if dying[d] {
			t.Remove(d)
			removed++
		}
	}
	return removed
}

// InState returns the live queries in the given state, sorted by ID for
// deterministic scheduling. The Ready case is served from the incremental
// index (O(ready) instead of O(live)); stale entries are pruned in
// passing.
func (t *Tree) InState(s State) []*Query {
	var out []*Query
	if s == Ready {
		for id, q := range t.ready {
			if q.State != Ready {
				delete(t.ready, id)
				continue
			}
			out = append(out, q)
		}
	} else {
		for _, q := range t.queries {
			if q.State == s {
				out = append(out, q)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReadyCount returns the number of Ready queries, pruning stale index
// entries in passing.
func (t *Tree) ReadyCount() int {
	n := 0
	for id, q := range t.ready {
		if q.State != Ready {
			delete(t.ready, id)
			continue
		}
		n++
	}
	return n
}

// All returns the live queries sorted by ID.
func (t *Tree) All() []*Query {
	out := make([]*Query, 0, len(t.queries))
	for _, q := range t.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
