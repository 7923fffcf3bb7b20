package harness

import (
	"flag"
	"testing"

	"repro/internal/core"
	"repro/internal/drivers"
)

// sweep turns the verdict sweep on; `make verdict-sweep` sets it, so the
// sweep runs once in `make ci` and not again under `go test ./...`.
var sweep = flag.Bool("sweep", false, "run the verdict sweep over the seven named drivers")

// sweepDrivers is how many of drivers.Named() the sweep covers: the
// paper's seven named drivers, ahead of the generated fillers.
const sweepDrivers = 7

// TestVerdictSweep runs the seven named drivers against every property,
// safe and buggy, under may-must on one thread with a 300 000-tick budget.
// A definite verdict that contradicts the check's Buggy flag fails the
// test; an Unknown (budget spent) does not. The decided counts are
// logged: a change to the analyses should only ever raise them.
func TestVerdictSweep(t *testing.T) {
	if !*sweep {
		t.Skip("the verdict sweep runs with -sweep (make verdict-sweep)")
	}
	var decided, total [2]int // indexed by buggy
	for _, d := range drivers.Named()[:sweepDrivers] {
		for _, p := range drivers.PropertyNames() {
			for b, buggy := range []bool{false, true} {
				check := drivers.NamedCheck(d.Name, p, buggy)
				want := map[bool]core.Verdict{false: core.Safe, true: core.ErrorReachable}[buggy]
				r := RunCheck(check, 1, Options{TickBudget: 300000})
				total[b]++
				switch r.Verdict {
				case want:
					decided[b]++
				case core.Unknown:
				default:
					t.Errorf("%s (buggy=%v): verdict %v", check.ID(), buggy, r.Verdict)
				}
			}
		}
	}
	t.Logf("decided: Safe on %d of %d safe checks, Error Reachable on %d of %d buggy checks", decided[0], total[0], decided[1], total[1])
}
