package bolt_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	bolt "repro"
	"repro/internal/drivers"
	"repro/internal/harness"
)

// allocPinBudget is what the second of two one-thread checks of
// parport/PowerDownFail in one process may allocate: the 1.70 MB measured
// when the must side's membership check came to be decided in the cube
// kernel, a split to give its retired region's block of list heads back,
// Cube.Formula to gather its atoms on the stack and Sat to walk
// equalities without rewriting them first (1.92 MB before, when the
// region graph came to keep its regions in chunks and its lists in its
// edge records, and a call crossing to copy the store only once it lands;
// 2.18 MB before that, when the solver memos came to keep compact slots,
// the one-step check came to be decided in the cube kernel and the must
// side stopped copying the stores of images it drops; 2.97 MB before that;
// 3.20 MB when the region graph's edge records and lists came to hold no
// pointer, 3.89 MB before that, 5.53 MB before the intern table came to
// live as long as a run, 15.48 MB before the cube kernel built its cubes
// in pooled scratch memory, 40.4 MB before the intern table owned its
// nodes), plus 10 %. The figure repeats to 0.5 % between runs, so the
// head-room is for changes elsewhere, not for noise. Under -race it is not
// held: the race detector makes sync.Pool drop a quarter of what it is
// given, and the scratch memory is allocated again. A change that lowers
// the allocation on purpose lowers the budget with it.
const allocPinBudget = 1_871_000

// TestAllocPin holds the allocation of a check still. The check runs
// twice. The first run ends by dropping the intern table, so the second
// interns every formula it builds again, as a run in a new process does;
// what differs from the first is only that the runtime and the cube
// kernel's scratch pool are warm. It is the second that is held against
// the budget: constructors that allocate on a hit, term arithmetic that
// goes to the heap on the way to the table, or a layer above that
// allocates more show here as megabytes.
func TestAllocPin(t *testing.T) {
	prog := bolt.MustParse(drivers.Source(harness.Table1Checks()[3].Config))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := prog.Check(bolt.Options{Threads: 1})
		runtime.ReadMemStats(&after)
		if r.Verdict != bolt.Safe {
			t.Fatalf("parport/PowerDownFail: %v, want Safe", r.Verdict)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := run(), run()
	t.Logf("allocated %d bytes in the first check, %d in the second (budget %d)", first, second, allocPinBudget)
	if raceEnabled() {
		t.Skip("the budget is not held under the race detector")
	}
	if second > allocPinBudget {
		t.Errorf("second check allocates %d bytes, budget %d: the constructors' hit path or the term arithmetic allocates again, or a layer above it allocates more", second, allocPinBudget)
	}
}

// heapPinSlack is how far the live heap after the fifth check may lie
// above that after the first: span fragmentation moves HeapInuse after a
// collection by a few hundred kilobytes from check to check. A table that
// kept every run's formulas grows it by megabytes a check (17 to 34 MB
// over these five).
const heapPinSlack = 1 << 20

// TestHeapPin holds the lifetime of formulas: five different Table-1
// checks in a row, on one thread, leave no more heap in use after a
// collection than the first one did. What a check interns is dropped when
// it ends; only the table's slot arrays, sized for the largest check so
// far, stay.
func TestHeapPin(t *testing.T) {
	if raceEnabled() {
		t.Skip("the live heap is not held under the race detector")
	}
	var inuse []uint64
	for _, c := range harness.Table1Checks()[:5] {
		r := bolt.MustParse(drivers.Source(c.Config)).Check(bolt.Options{Threads: 1})
		if r.Verdict != bolt.Safe {
			t.Fatalf("%s: %v, want Safe", c.ID(), r.Verdict)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		inuse = append(inuse, m.HeapInuse)
	}
	t.Logf("HeapInuse after each check: %v", inuse)
	if inuse[4] > inuse[0]+heapPinSlack {
		t.Errorf("HeapInuse grows from %d bytes after the first check to %d after the fifth: formulas outlive their run", inuse[0], inuse[4])
	}
}

// raceEnabled reports a test binary built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// clusterAllocPinBudget is what the second of two checks of the
// fan-out-16 toastmon-shaped driver (wideDriver) on a 2-node cluster, one
// thread a node, may allocate: the 19.9–20.0 MB measured when gossip came
// to walk each procedure from a per-procedure cursor and to encode a
// delivery only for a tracer (82.9 MB before, when every exchange copied
// every shard with DB.All, probed every pair delivered so far and encoded
// every delivery), plus 15 %. The old exchange grew with rounds ×
// summaries: one check of the fan-out-32 driver allocated 278 MB before
// and 51 MB after. Under -race the budget is not held.
const clusterAllocPinBudget = 23_000_000

// wideDriver is the toastmon-shaped driver (depth 3, 3 shared helpers,
// work 4) at the given fan-out, wider than the suite's drivers.
func wideDriver(fanout int) string {
	return drivers.Source(drivers.Config{Name: "toastmon", Fanout: fanout, Depth: 3, Shared: 3, Work: 4, Property: "PendedCompletedRequest"})
}

// TestClusterAllocPin holds the allocation of a cluster check whose
// gossip runs for 1 305 rounds: the cost of an exchange must follow
// what is new in it, not what was gossiped before.
func TestClusterAllocPin(t *testing.T) {
	prog := bolt.MustParse(wideDriver(16))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{Nodes: 2, ThreadsPerNode: 1})
		runtime.ReadMemStats(&after)
		if err != nil || r.Verdict != bolt.Safe {
			t.Fatalf("fan-out 16 on 2 nodes: %v (%v), want Safe", r.Verdict, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := run(), run()
	t.Logf("allocated %d bytes in the first check, %d in the second (budget %d)", first, second, clusterAllocPinBudget)
	if raceEnabled() {
		t.Skip("the budget is not held under the race detector")
	}
	if second > clusterAllocPinBudget {
		t.Errorf("second check allocates %d bytes, budget %d: an exchange costs more than what is new in it, or a layer below allocates more", second, clusterAllocPinBudget)
	}
}
