package harness

import (
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSmokeThreadLadder prints one check's scaling; enable with
// HARNESS_SMOKE=1.
func TestSmokeThreadLadder(t *testing.T) {
	if os.Getenv("HARNESS_SMOKE") == "" {
		t.Skip("set HARNESS_SMOKE=1")
	}
	opts := Options{WallBudget: 60 * time.Second}
	check := Table1Checks()[1] // toastmon/PnpIrpCompletion
	for _, th := range []int{1, 2, 4, 8, 16, 64} {
		start := time.Now()
		r := RunCheck(check, th, opts)
		t.Logf("threads=%3d verdict=%v ticks=%d queries=%d peak=%d wall=%v",
			th, r.Verdict, r.Ticks, r.Queries, r.Peak, time.Since(start).Round(time.Millisecond))
	}
}

// TestSmokeCostProfile prints per-procedure cost for the sequential run,
// summed from the run's PUNCH-end events; enable with HARNESS_SMOKE=1.
func TestSmokeCostProfile(t *testing.T) {
	if os.Getenv("HARNESS_SMOKE") == "" {
		t.Skip("set HARNESS_SMOKE=1")
	}
	rec := &obs.Recording{}
	opts := Options{WallBudget: 60 * time.Second, Tracer: rec}
	check := Table1Checks()[1]
	r := RunCheck(check, 1, opts)
	t.Logf("verdict=%v ticks=%d queries=%d", r.Verdict, r.Ticks, r.Queries)
	cost := map[string]int64{}
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvPunchEnd {
			cost[ev.Proc] += ev.Cost
		}
	}
	for proc, c := range cost {
		t.Logf("  %-20s %10d", proc, c)
	}
}

// TestSmokeTrace prints the per-iteration schedule at 8 threads; enable
// with HARNESS_SMOKE=1.
func TestSmokeTrace(t *testing.T) {
	if os.Getenv("HARNESS_SMOKE") == "" {
		t.Skip("set HARNESS_SMOKE=1")
	}
	opts := Options{WallBudget: 60 * time.Second}
	check := Table1Checks()[1]
	r := RunCheck(check, 8, opts)
	t.Logf("verdict=%v ticks=%d iters=%d", r.Verdict, r.Ticks, len(r.Trace))
	for i, s := range r.Trace {
		if i%10 == 0 || s.Ready > 6 {
			t.Logf("iter=%4d vt=%8d ready=%3d proc=%2d cost=%6d live=%3d new=%d", s.Iter, s.VTime, s.Ready, s.Processed, s.StageCost, s.Live, s.NewQueries)
		}
	}
}

// TestSmokeTable1Checks measures each Table 1 check sequentially; enable
// with HARNESS_SMOKE=1.
func TestSmokeTable1Checks(t *testing.T) {
	if os.Getenv("HARNESS_SMOKE") == "" {
		t.Skip("set HARNESS_SMOKE=1")
	}
	opts := Options{WallBudget: 45 * time.Second}
	for _, check := range Table1Checks() {
		start := time.Now()
		r := RunCheck(check, 1, opts)
		t.Logf("%-42s verdict=%v ticks=%8d wall=%v", check.ID(), r.Verdict, r.Ticks, time.Since(start).Round(time.Millisecond))
	}
}
