package regions_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
)

// TestStreamingWorkersShareTheMemos runs parport/PowerDownFail on the
// streaming engine with four workers, whose region graphs all ask the one
// solver of the run for one-step feasibility and Simplify results. Under
// the race detector (make race) this is the concurrency certificate of
// the shared memos; without it, it checks that the sharing happens and
// costs no verdict.
func TestStreamingWorkersShareTheMemos(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	for _, p := range []punch.Punch{maymust.New(), may.New()} {
		// The budget is the may-must analysis's need; the may analysis
		// spends it all and stays undecided.
		res := core.New(prog, core.Options{Punch: p, MaxThreads: 4, VirtualCores: 4, Async: true, MaxVirtualTicks: 100000, CheckContract: true}).Run(core.AssertionQuestion(prog))
		if res.Verdict == core.ErrorReachable || p.Name() == "may-must" && res.Verdict != core.Safe {
			t.Fatalf("%s: verdict %v on a safe program", p.Name(), res.Verdict)
		}
		st := res.Solver
		if st.StepMemo.Entries == 0 || st.SimplifyMemo.Entries == 0 || st.StepMemo.Entries > st.StepMemo.Capacity {
			t.Fatalf("%s: step memo %+v, Simplify memo %+v", p.Name(), st.StepMemo, st.SimplifyMemo)
		}
	}
}
