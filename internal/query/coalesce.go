// In-flight query coalescing support: the multi-waiter edge set and the
// canonical-question index the engines use to answer a freshly spawned
// question with an already-live twin query instead of growing a duplicate
// subtree. One summary answers every waiter because a Done query's only
// observable effect is the SUMDB entry answering its question (§3.2), and
// woken waiters always re-examine SUMDB rather than the twin itself.
package query

// Inflight returns the live query registered for the canonical question
// key, if any. Registration is first-wins: later twins (e.g. spawns that
// skipped coalescing because of a cycle) never displace the entry.
func (t *Tree) Inflight(key string) (ID, bool) {
	id, ok := t.inflight[key]
	return id, ok
}

// InflightSize returns the number of canonical-question keys currently
// registered in the in-flight index.
// Callers must hold whatever lock guards the tree.
func (t *Tree) InflightSize() int { return len(t.inflight) }

// WaiterEdgeCount returns the number of live coalesced waiter
// registrations (the sum over all twins of their waiter counts).
// Callers must hold whatever lock guards the tree.
func (t *Tree) WaiterEdgeCount() int {
	n := 0
	for _, ws := range t.waiters {
		n += len(ws)
	}
	return n
}

// AddWaiter registers w as an additional parent waiting on id's summary.
// Duplicate registrations are ignored. The edge persists across id's
// Ready/Blocked transitions; engines fan the wake out (and then
// ClearWaiters) only when id goes Done.
func (t *Tree) AddWaiter(id, w ID) {
	if containsID(t.waiters[id], w) {
		return
	}
	t.waiters[id] = append(t.waiters[id], w)
	t.waitingOn[w] = append(t.waitingOn[w], id)
}

// Waiters returns the waiters registered on id (nil when none). The
// returned slice is the tree's own bookkeeping; callers must not mutate
// it.
func (t *Tree) Waiters(id ID) []ID { return t.waiters[id] }

// EachWaiterEdge calls f for every registered edge "waiter waits on
// twin" (the reducer's invariant check walks them).
func (t *Tree) EachWaiterEdge(f func(twin, waiter ID)) {
	for twin, ws := range t.waiters {
		for _, w := range ws {
			f(twin, w)
		}
	}
}

// ClearWaiters drops every waiter edge of id. Engines call it after the
// Done fan-out wake, restoring the "no waiters remain" GC condition
// before RemoveSubtree.
func (t *Tree) ClearWaiters(id ID) {
	for _, w := range t.waiters[id] {
		t.waitingOn[w] = dropID(t.waitingOn[w], id)
		if len(t.waitingOn[w]) == 0 {
			delete(t.waitingOn, w)
		}
	}
	delete(t.waiters, id)
}

// Forget severs all waiter edges touching id and its in-flight index
// entry. Remove calls it so dead waiters cannot pin their twins and a
// dead twin's key becomes available again; the reducer calls it on the
// other trees of a forest when one tree collects id, since a waiter edge
// is recorded in the twin's tree, not the waiter's.
func (t *Tree) Forget(id ID) {
	if wo := t.waitingOn[id]; len(wo) > 0 {
		for _, tw := range wo {
			t.waiters[tw] = dropID(t.waiters[tw], id)
			if len(t.waiters[tw]) == 0 {
				delete(t.waiters, tw)
			}
		}
		delete(t.waitingOn, id)
	}
	if ws := t.waiters[id]; len(ws) > 0 {
		for _, w := range ws {
			t.waitingOn[w] = dropID(t.waitingOn[w], id)
			if len(t.waitingOn[w]) == 0 {
				delete(t.waitingOn, w)
			}
		}
		delete(t.waiters, id)
	}
	if k, ok := t.inflightKey[id]; ok {
		delete(t.inflightKey, id)
		if t.inflight[k] == id {
			delete(t.inflight, k)
		}
	}
}

// hasWaiterOutside reports whether id has a waiter not in the dying set.
func (t *Tree) hasWaiterOutside(id ID, dying map[ID]bool) bool {
	for _, w := range t.waiters[id] {
		if !dying[w] {
			return true
		}
	}
	return false
}

func dropID(ids []ID, id ID) []ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// WouldCycle reports whether registering spawner as a waiter on twin
// would close a waits-for cycle: true when twin's completion already
// (transitively) depends on spawner through child edges or existing
// waiter registrations. Coalescing must skip such spawns — a recursive
// program's infinite regress (bounded by budgets) would otherwise become
// a genuine deadlock and change the verdict. trees is the forest the
// edges are scattered across: a single element for the single-machine
// engines, one tree per node for the distributed engine (a child edge is
// recorded in the child's owning tree, so the walk consults all of them).
// Conservative in the right direction — a spurious cycle only costs one
// missed coalescing opportunity.
func WouldCycle(trees []*Tree, twin, spawner ID) bool {
	if twin == spawner {
		return true
	}
	visited := map[ID]bool{twin: true}
	stack := []ID{twin}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range trees {
			for _, next := range t.children[cur] {
				if next == spawner {
					return true
				}
				if !visited[next] {
					visited[next] = true
					stack = append(stack, next)
				}
			}
			for _, next := range t.waitingOn[cur] {
				if next == spawner {
					return true
				}
				if !visited[next] {
					visited[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	return false
}
