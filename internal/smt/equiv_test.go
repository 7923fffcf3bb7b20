package smt_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/query"
)

// unmemoized switches the run's solver to computing every one-step
// feasibility check and every Simplify afresh, before the first Step
// reaches it (one worker, so nothing reads the switch meanwhile).
type unmemoized struct{ punch.Punch }

func (p unmemoized) Step(ctx *punch.Context, q *query.Query) punch.Result {
	ctx.DB.Solver().DisableStepMemos()
	return p.Punch.Step(ctx, q)
}

// TestStepMemosChangeNoAnswer: the two memos keep results of pure
// functions, so with them and without them every corpus program and
// parport/PowerDownFail take the same trajectory — verdict, virtual ticks
// and query count — under the may and the may-must analysis on the barrier
// and on the streaming engine; the memoized run makes no more Sat calls,
// and fewer over all of them.
func TestStepMemosChangeNoAnswer(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	type input struct {
		name   string
		prog   *cfg.Program
		budget int64 // the may analysis only burns it on the looping programs
	}
	inputs := []input{{"parport/PowerDownFail", drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config), 100000}}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), parser.MustParse(string(src)), 25000})
	}
	var satWith, satWithout int64
	for _, in := range inputs {
		name, prog := in.name, in.prog
		for _, mk := range []func() punch.Punch{func() punch.Punch { return may.New() }, func() punch.Punch { return maymust.New() }} {
			for _, async := range []bool{false, true} {
				run := func(p punch.Punch) core.Result {
					return core.New(prog, core.Options{Punch: p, MaxThreads: 1, Async: async, MaxVirtualTicks: in.budget}).Run(core.AssertionQuestion(prog))
				}
				with, without := run(mk()), run(unmemoized{mk()})
				if with.Verdict != without.Verdict || with.VirtualTicks != without.VirtualTicks || with.TotalQueries != without.TotalQueries {
					t.Errorf("%s %s async=%v: memoized %v/%d ticks/%d queries, unmemoized %v/%d/%d", name, mk().Name(), async,
						with.Verdict, with.VirtualTicks, with.TotalQueries, without.Verdict, without.VirtualTicks, without.TotalQueries)
				}
				if with.Solver.SatCalls > without.Solver.SatCalls || without.Solver.StepMemo.Entries != 0 {
					t.Errorf("%s %s async=%v: %d Sat calls memoized, %d unmemoized (which kept %d results)", name, mk().Name(), async,
						with.Solver.SatCalls, without.Solver.SatCalls, without.Solver.StepMemo.Entries)
				}
				satWith += with.Solver.SatCalls
				satWithout += without.Solver.SatCalls
			}
		}
	}
	if satWith >= satWithout {
		t.Errorf("the memos saved nothing on the corpus: %d Sat calls with, %d without", satWith, satWithout)
	}
}
