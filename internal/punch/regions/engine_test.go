package regions_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/regions"
	"repro/internal/smt"
)

// TestShutInheritanceAgreesWithSolver re-derives every shut mark that a
// split hands to a part's edge, on every corpus program and on
// parport/PowerDownFail under the may and the may-must analysis: a solver
// of its own (nothing charged to the run, nothing shared with its memos)
// must prove ρ ∧ pre(stmt, ρ') unsatisfiable for the part as it was
// proven for the whole.
func TestShutInheritanceAgreesWithSolver(t *testing.T) {
	files, err := filepath.Glob("../../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	progs := map[string]*cfg.Program{"parport/PowerDownFail": drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config)}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = parser.MustParse(string(src))
	}
	ref := smt.New()
	inherited, wrong := 0, 0
	defer regions.AuditInherited(func(stmt lang.Stmt, from, to logic.Formula) {
		inherited++
		if r := ref.Sat(logic.Conj(from, logic.Pre(stmt, to, logic.Over))); !r.Known || r.Sat {
			wrong++
			t.Errorf("inherited shut mark on %v from %v to %v: the solver says %+v", stmt, from, to, r)
		}
	})()
	for name, prog := range progs {
		for _, p := range []punch.Punch{may.New(), maymust.New()} {
			res := core.New(prog, core.Options{Punch: p, MaxThreads: 1, MaxVirtualTicks: 100000, CheckContract: true}).Run(core.AssertionQuestion(prog))
			if bug := strings.HasPrefix(name, "bug_"); res.Verdict == core.ErrorReachable && !bug || res.Verdict == core.Safe && bug {
				t.Errorf("%s %s: verdict %v", name, p.Name(), res.Verdict)
			}
		}
	}
	if inherited == 0 {
		t.Fatal("no split inherited a shut mark")
	}
	t.Logf("%d inherited shut marks re-derived, %d disagreements", inherited, wrong)
}

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
