package query

import (
	"testing"
)

// TestInflightFirstWins: the first query added for a key owns the
// in-flight slot; a later twin must not displace it, and removing the
// owner frees the key.
func TestInflightFirstWins(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()

	first := a.New(NoParent, q("f"))
	tr.Add(first)
	id, ok := tr.Inflight(first.Q.Key())
	if !ok || id != first.ID {
		t.Fatalf("Inflight = (%d, %v), want (%d, true)", id, ok, first.ID)
	}

	twin := a.New(first.ID, q("f"))
	tr.Add(twin)
	if id, _ := tr.Inflight(first.Q.Key()); id != first.ID {
		t.Fatalf("twin displaced inflight owner: got %d, want %d", id, first.ID)
	}

	tr.Remove(twin.ID)
	if id, _ := tr.Inflight(first.Q.Key()); id != first.ID {
		t.Fatalf("removing non-owner freed the key: got %d, want %d", id, first.ID)
	}
	tr.Remove(first.ID)
	if _, ok := tr.Inflight(first.Q.Key()); ok {
		t.Fatalf("inflight key survived owner removal")
	}
}

// TestAddWaiterAndClear: AddWaiter records both edge directions and
// dedups; ClearWaiters severs the reverse edges too.
func TestAddWaiterAndClear(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()
	twin := a.New(NoParent, q("f"))
	w1 := a.New(NoParent, q("g"))
	w2 := a.New(NoParent, q("h"))
	for _, qr := range []*Query{twin, w1, w2} {
		tr.Add(qr)
	}

	tr.AddWaiter(twin.ID, w1.ID)
	tr.AddWaiter(twin.ID, w1.ID) // duplicate registration must be a no-op
	tr.AddWaiter(twin.ID, w2.ID)
	if ws := tr.Waiters(twin.ID); len(ws) != 2 {
		t.Fatalf("Waiters = %v, want exactly {w1, w2}", ws)
	}
	if wo := tr.waitingOn[w1.ID]; len(wo) != 1 || wo[0] != twin.ID {
		t.Fatalf("waitingOn[w1] = %v, want [twin]", wo)
	}

	tr.ClearWaiters(twin.ID)
	if ws := tr.Waiters(twin.ID); len(ws) != 0 {
		t.Fatalf("Waiters after ClearWaiters = %v", ws)
	}
	if wo := tr.waitingOn[w1.ID]; len(wo) != 0 {
		t.Fatalf("reverse edge survived ClearWaiters: %v", wo)
	}
}

// TestRemoveUnlinksWaiterEdges: removing a waiter (or a waited-on
// query) must drop both directions of every coalesce edge touching it.
func TestRemoveUnlinksWaiterEdges(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()
	twin := a.New(NoParent, q("f"))
	w := a.New(NoParent, q("g"))
	tr.Add(twin)
	tr.Add(w)
	tr.AddWaiter(twin.ID, w.ID)

	tr.Remove(w.ID)
	if ws := tr.Waiters(twin.ID); len(ws) != 0 {
		t.Fatalf("removed waiter still registered: %v", ws)
	}

	tr.AddWaiter(twin.ID, twin.ID) // self edge just to exercise unlink on the twin side
	tr.Remove(twin.ID)
	if wo := tr.waitingOn[twin.ID]; len(wo) != 0 {
		t.Fatalf("removed twin still waiting on %v", wo)
	}
}

// TestRemoveSubtreeRetainsWaitedBranch: collecting a Done root must not
// collect a descendant some external query still waits on — that
// descendant (and hence its answer) has to survive until its own Done
// fan-out runs.
func TestRemoveSubtreeRetainsWaitedBranch(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()
	root := a.New(NoParent, q("a"))
	child := a.New(root.ID, q("b"))
	ext := a.New(NoParent, q("c"))
	tr.Add(root)
	tr.Add(child)
	tr.Add(ext)
	tr.AddWaiter(child.ID, ext.ID)

	removed := tr.RemoveSubtree(root.ID)
	if removed != 1 {
		t.Fatalf("removed %d, want 1 (root only)", removed)
	}
	if tr.Get(child.ID) == nil {
		t.Fatalf("waited-on child was collected with its parent")
	}
	if tr.Get(root.ID) != nil {
		t.Fatalf("root survived its own collection")
	}
}

// TestRemoveSubtreeRetentionFixpoint: retention is transitive — if a
// retained query itself waits on another dying query, that one must be
// retained too, found by fixpoint rather than a single pass.
func TestRemoveSubtreeRetentionFixpoint(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()
	root := a.New(NoParent, q("r"))
	qa := a.New(root.ID, q("a"))
	qb := a.New(root.ID, q("b"))
	qc := a.New(qa.ID, q("c"))
	ext := a.New(NoParent, q("e"))
	for _, qr := range []*Query{root, qa, qb, qc, ext} {
		tr.Add(qr)
	}
	tr.AddWaiter(qc.ID, ext.ID) // external waiter pins c
	tr.AddWaiter(qb.ID, qc.ID)  // c waits on its dying sibling branch b

	removed := tr.RemoveSubtree(root.ID)
	// c survives via the external waiter; b survives because retained c
	// waits on it. Only root and a die.
	if removed != 2 {
		t.Fatalf("removed %d, want 2 (root and a)", removed)
	}
	for _, keep := range []ID{qb.ID, qc.ID, ext.ID} {
		if tr.Get(keep) == nil {
			t.Fatalf("query %d collected despite live waiter chain", keep)
		}
	}
	for _, gone := range []ID{root.ID, qa.ID} {
		if tr.Get(gone) != nil {
			t.Fatalf("query %d retained without a waiter", gone)
		}
	}
}

// TestMoveToCarriesCoalesceState: failover migration must carry the
// in-flight registration and both directions of waiter edges into the
// destination tree, so orphaned waiters can still be woken there.
func TestMoveToCarriesCoalesceState(t *testing.T) {
	a := &Allocator{}
	src := NewTree()
	dst := NewTree()

	twin := a.New(NoParent, q("f"))
	w := a.New(NoParent, q("g"))
	on := a.New(NoParent, q("h"))
	src.Add(twin)
	src.Add(w)
	src.Add(on)
	src.AddWaiter(twin.ID, w.ID)  // w waits on twin
	src.AddWaiter(on.ID, twin.ID) // twin waits on "on"

	if !src.MoveTo(dst, twin.ID) {
		t.Fatalf("MoveTo failed")
	}
	if id, ok := dst.Inflight(twin.Q.Key()); !ok || id != twin.ID {
		t.Fatalf("inflight registration not migrated: (%d, %v)", id, ok)
	}
	if ws := dst.Waiters(twin.ID); len(ws) != 1 || ws[0] != w.ID {
		t.Fatalf("waiters not migrated: %v", ws)
	}
	if wo := dst.waitingOn[twin.ID]; len(wo) != 1 || wo[0] != on.ID {
		t.Fatalf("waitingOn not migrated: %v", wo)
	}
	if _, ok := src.Inflight(twin.Q.Key()); ok {
		t.Fatalf("source tree kept the inflight key after migration")
	}
}

// TestWouldCycle: coalescing a spawn onto a twin that (transitively)
// depends on the spawner would deadlock; WouldCycle must see both child
// edges and waiter edges, across trees.
func TestWouldCycle(t *testing.T) {
	a := &Allocator{}
	tr := NewTree()
	root := a.New(NoParent, q("r"))
	qa := a.New(root.ID, q("a"))
	qb := a.New(qa.ID, q("b"))
	for _, qr := range []*Query{root, qa, qb} {
		tr.Add(qr)
	}
	forest := []*Tree{tr}

	// root -> a -> b by child edges: b's answer flows up to root, so
	// root coalescing onto b is fine, but b coalescing onto root cycles.
	if WouldCycle(forest, qb.ID, root.ID) {
		t.Fatalf("no cycle expected: b does not depend on root")
	}
	if !WouldCycle(forest, root.ID, qb.ID) {
		t.Fatalf("cycle expected: root reaches b via child edges")
	}

	// Cross-tree: twin in t1 waits (coalesce edge) on x in t1, whose
	// child lives in t2 and is the would-be spawner.
	t1 := NewTree()
	t2 := NewTree()
	twin := a.New(NoParent, q("t"))
	x := a.New(NoParent, q("x"))
	t1.Add(twin)
	t1.Add(x)
	t1.AddWaiter(x.ID, twin.ID) // twin waits on x
	y := a.New(x.ID, q("y"))
	t2.Add(y)
	if !WouldCycle([]*Tree{t1, t2}, twin.ID, y.ID) {
		t.Fatalf("cycle expected: twin -> x (waiter edge) -> y (child edge in other tree)")
	}
	if WouldCycle([]*Tree{t1, t2}, y.ID, twin.ID) {
		t.Fatalf("no cycle expected in the reverse direction")
	}
}
