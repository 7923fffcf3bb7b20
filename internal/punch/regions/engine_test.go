package regions_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/regions"
	"repro/internal/smt"
)

// TestShutInheritanceAgreesWithSolver re-derives every dead abstract edge:
// after every split on every corpus program and on parport/PowerDownFail
// under the may and the may-must analysis the graph passes its own Check,
// and for every pair of live regions across a simple statement that has no
// live edge — eliminated by the analysis, shut by a search, or absent from
// birth because a part inherits the death of its whole — a solver of its
// own (nothing charged to the run, nothing shared with its memos) proves
// ρ ∧ pre(stmt, ρ') unsatisfiable. Call statements are left out: only a
// summary kills a call edge, and isOpen never evaluates one. Graphs a
// query takes from its node's shelf are audited as they are taken: what
// the query that shelved them eliminated holds for the next one.
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
	type triple struct {
		stmt     lang.Stmt
		from, to logic.ID
	}
	ref := smt.New()
	absent, wrong, takes, derived := 0, 0, 0, map[triple]bool{}
	defer regions.AuditAbsent(func(err error) { t.Error(err) }, func(ce *cfg.Edge, from, to logic.Formula) {
		absent++
		k := triple{ce.Stmt, logic.KeyID(from), logic.KeyID(to)}
		if derived[k] {
			return
		}
		derived[k] = true
		if r := ref.Sat(logic.Conj(from, logic.Pre(ce.Stmt, to, logic.Over))); !r.Known || r.Sat {
			wrong++
			t.Errorf("no live edge over %v from %v to %v: the solver says %+v", ce.Stmt, from, to, r)
		}
	}, func() { takes++ })()
	for name, prog := range progs {
		for _, p := range []punch.Punch{may.New(), maymust.New()} {
			res := core.New(prog, core.Options{Punch: p, MaxThreads: 1, MaxVirtualTicks: 100000, CheckContract: true}).Run(core.AssertionQuestion(prog))
			if bug := strings.HasPrefix(name, "bug_"); res.Verdict == core.ErrorReachable && !bug || res.Verdict == core.Safe && bug {
				t.Errorf("%s %s: verdict %v", name, p.Name(), res.Verdict)
			}
		}
	}
	if len(derived) < 8964 {
		t.Fatalf("%d dead edges re-derived, fewer than the 8964 inherited shut marks this test checked before eliminations were included", len(derived))
	}
	if takes == 0 {
		t.Fatal("no query took a shelved graph: the handoff went unaudited")
	}
	t.Logf("%d absent pairs, %d distinct (statement, ρ, ρ') re-derived, %d disagreements, %d shelved graphs taken", absent, len(derived), wrong, takes)
}

// TestShelfMovesBetweenStreamingWorkers runs toastmon/PendedCompletedRequest
// on the streaming engine with four workers, which finish queries and
// start new ones at the same time against their node's one shelf; its
// fan-out puts several queries of one procedure and postcondition in
// flight together. Every graph goes from one holder to the shelf and from
// there to one next holder: none is shelved while on the shelf, none taken
// twice. Under the race detector (make race) two queries touching one
// graph would also show as a race.
func TestShelfMovesBetweenStreamingWorkers(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("toastmon", "PendedCompletedRequest", false).Config)
	for _, p := range []punch.Punch{maymust.New(), may.New()} {
		var mu sync.Mutex
		takes := 0
		stop := regions.AuditHands(func(err error) { t.Error(err) }, func() { mu.Lock(); takes++; mu.Unlock() })
		m := obs.NewMetrics()
		res := core.New(prog, core.Options{Punch: p, MaxThreads: 4, VirtualCores: 4, Async: true, MaxVirtualTicks: 100000, Metrics: m}).Run(core.AssertionQuestion(prog))
		stop()
		if res.Verdict == core.ErrorReachable {
			t.Fatalf("%s: verdict %v on a safe program", p.Name(), res.Verdict)
		}
		if n := res.Metrics.Counters["shelf_taken"]; takes == 0 || int64(takes) != n {
			t.Errorf("%s: %d takes audited, shelf_taken %d; want the same, above 0", p.Name(), takes, n)
		}
	}
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
