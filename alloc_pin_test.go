package bolt_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	bolt "repro"
	"repro/internal/drivers"
	"repro/internal/harness"
)

// allocPinBudget is what one warm one-thread check of parport/PowerDownFail
// may allocate: the 5.91 MB measured when the budget was set (15.48 MB
// before the cube kernel built its cubes and projections in pooled scratch
// memory, 17.22 MB before the region graph kept records of live edges
// only, 18.47 MB before splits inherited shut marks and the run memoized
// one-step feasibility, 40.4 MB before the intern table owned its nodes),
// plus 10 %. The figure repeats to 0.1 % between runs, so the head-room is
// for changes elsewhere, not for noise. Under -race it is not held: the
// race detector makes sync.Pool drop a quarter of what it is given, and the
// scratch memory is allocated again. A change that lowers the allocation on
// purpose lowers the budget with it.
const allocPinBudget = 6_500_000

// TestAllocPin holds the allocation of the formula constructors' hit path
// still. The check runs twice: the first run fills the process-global
// intern table, whatever ran in this process before it, so the second
// builds hardly a formula that does not exist and allocates what the
// analysis itself needs — cubes, region-graph edges, solver memos. Giving
// back a child slice or a boxed node per Conj shows here as megabytes.
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
	cold, warm := run(), run()
	t.Logf("allocated %d bytes cold, %d warm (budget %d)", cold, warm, allocPinBudget)
	if raceEnabled() {
		t.Skip("the budget is not held under the race detector")
	}
	if warm > allocPinBudget {
		t.Errorf("warm check allocates %d bytes, budget %d: the constructors' hit path allocates again, or a layer above it allocates more", warm, allocPinBudget)
	}
}

// raceEnabled reports a test binary built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
