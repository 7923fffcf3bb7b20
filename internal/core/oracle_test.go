package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// localSplitSrc is safe, and its proof for p has to split p's entry region
// on the uninitialised local x: from g = 0 no value of x sets r, from
// g ≠ 0 every x ≤ 0 (the interpreter starts locals at 0) does. A not-may
// summary of p that claims a state with g ≠ 0 is wrong, and the
// ∃-projection of p's entry regions onto the globals claims them.
const localSplitSrc = `globals g, r;
proc main { g = 0; r = 0; p(); assert(r == 0); }
proc p { locals x; if (x <= 0) { if (g != 0) { r = 1; } } }`

// oraclePrograms are the safe programs whose summaries the concrete oracle
// checks: two toys, the local-split program and every safe corpus program.
func oraclePrograms(t *testing.T) map[string]*cfg.Program {
	progs := map[string]*cfg.Program{
		"toy_inc": parser.MustParse(`globals g;
		 proc main { g = 0; inc(); inc(); assert(g <= 2); }
		 proc inc { g = g + 1; }`),
		"toy_lock": parser.MustParse(`globals lk;
		 proc main { lk = 0; acq(); rel(); assert(lk == 0); }
		 proc acq { if (lk == 0) { lk = 1; } }
		 proc rel { if (lk == 1) { lk = 0; } }`),
		"local_split": parser.MustParse(localSplitSrc),
	}
	files, err := filepath.Glob("../../testdata/corpus/safe_*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = parser.MustParse(string(src))
	}
	return progs
}

// oracleRun is one run's verdict and the summaries it left.
type oracleRun struct {
	engine  string
	verdict Verdict
	sums    []summary.Summary
}

// oracleRuns runs prog under the analysis newPunch makes on the barrier
// engine, the streaming engine and a three-node cluster. The may analysis
// never converges on the looping corpus programs, so every run has a
// budget; its summaries are checked all the same.
func oracleRuns(t *testing.T, prog *cfg.Program, newPunch func() punch.Punch) []oracleRun {
	var runs []oracleRun
	for engine, async := range map[string]bool{"barrier": false, "streaming": true} {
		res := New(prog, Options{Punch: newPunch(), MaxThreads: 2, Async: async, MaxIterations: 4000, MaxVirtualTicks: 50000}).
			Run(AssertionQuestion(prog))
		runs = append(runs, oracleRun{engine, res.Verdict, res.Summaries})
	}
	st := store.NewMem()
	dres := NewDistributed(prog, DistOptions{Punch: newPunch(), Nodes: 3, ThreadsPerNode: 2, MaxRounds: 400, Store: st}).
		Run(AssertionQuestion(prog))
	sums, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	return append(runs, oracleRun{"cluster", dres.Verdict, sums})
}

// oracleBox is the per-global range of the entry states a not-may summary
// is tried from, and oracleCap bounds how many states of the box are
// tried: a larger box is walked with a stride.
const (
	oracleBox = 3
	oracleCap = 2401
)

// boxStates returns the global states of [-oracleBox, oracleBox]^globals,
// at most oracleCap of them, spread over the whole box.
func boxStates(globals []lang.Var) []interp.State {
	side := 2*oracleBox + 1
	total := 1
	for range globals {
		total *= side
	}
	stride := (total + oracleCap - 1) / oracleCap
	var out []interp.State
	for i := 0; i < total; i += stride {
		s := interp.State{}
		for j, n := 0, i; j < len(globals); j, n = j+1, n/side {
			s[globals[j]] = int64(n%side - oracleBox)
		}
		out = append(out, s)
	}
	return out
}

// mustBeSafe names the programs every may-must run has to prove Safe
// within its budget; the corpus programs may end Unknown.
var mustBeSafe = map[string]bool{"toy_inc": true, "toy_lock": true, "local_split": true}

// TestSummariesSoundAgainstOracle: every not-may summary claims that no
// entry state in its precondition reaches an exit state in its
// postcondition. For every safe program above, under may and may-must on
// the barrier engine, the streaming engine and a cluster, each not-may
// summary is run through the concrete interpreter from one solver model of
// its precondition and from every state of a small box of global states
// that satisfies it, twenty havoc seeds each, and no run may end in its
// postcondition. A widened precondition that claims one state too many is
// caught here (local_split, whose summaries of p must have been run). No
// run may end Error Reachable, may-must proves the toys and local_split
// Safe, and every run that decides leaves summaries (may never decides
// safe_counter_loop, whose loop it cannot summarise, and leaves none). Every must summary is witnessed
// from one model of its precondition: some run ends in its postcondition.
func TestSummariesSoundAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle comparison is not short")
	}
	analyses := []struct {
		name string
		make func() punch.Punch
	}{
		{"may", func() punch.Punch { return may.New() }},
		{"may-must", func() punch.Punch { return maymust.New() }},
	}
	solver := smt.New()
	progs := oraclePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := progs[name]
		states := boxStates(prog.Globals)
		checked := map[string]bool{}
		notMay, inBox, splitRun := 0, 0, 0
		for _, a := range analyses {
			for _, run := range oracleRuns(t, prog, a.make) {
				where := name + " " + a.name + " " + run.engine
				if run.verdict == ErrorReachable || (a.name == "may-must" && mustBeSafe[name] && run.verdict != Safe) {
					t.Errorf("%s: verdict %v on a safe program", where, run.verdict)
				}
				if run.verdict != Unknown && len(run.sums) == 0 {
					t.Errorf("%s: no summaries recorded", where)
				}
				for _, s := range run.sums {
					key, err := wire.SummaryKey(s)
					if err != nil {
						t.Fatal(err)
					}
					if checked[key] {
						continue
					}
					checked[key] = true
					switch s.Kind {
					case summary.NotMay:
						notMay++
						if n := checkNotMay(t, where, prog, s, states, solver); n > 0 {
							inBox++
							if name == "local_split" && s.Proc == "p" {
								splitRun++
							}
						}
					case summary.Must:
						checkMust(t, where, prog, s, solver)
					}
				}
			}
		}
		if name == "local_split" && splitRun == 0 {
			t.Errorf("local_split: no not-may summary of p was run from a box state")
		}
		t.Logf("%s: %d not-may summaries, %d run from a box state as well as from a model", name, notMay, inBox)
	}
}

// checkNotMay runs s's procedure from one model of s.Pre and from every
// state of states inside s.Pre, and returns how many of states it ran from.
func checkNotMay(t *testing.T, where string, prog *cfg.Program, s summary.Summary, states []interp.State, solver *smt.Solver) int {
	t.Helper()
	run := func(start interp.State, seeds int64, maxSteps int) {
		for seed := int64(0); seed < seeds; seed++ {
			r := interp.RunProc(prog, s.Proc, start, interp.Options{Rand: rand.New(rand.NewSource(seed)), MaxSteps: maxSteps})
			if r.Completed && logic.Eval(s.Post, globalsOf(prog, r.Final)) {
				t.Fatalf("%s: not-may summary %v contradicted by a concrete run from %v (exit %v)", where, s, start, globalsOf(prog, r.Final))
			}
		}
	}
	if m := solver.Model(s.Pre); m != nil {
		start := interp.State{}
		for _, g := range prog.Globals {
			start[g] = m[g]
		}
		run(start, 40, 20000)
	}
	n := 0
	for _, start := range states {
		if logic.Eval(s.Pre, start) {
			run(start, 20, 2000)
			n++
		}
	}
	return n
}

// checkMust looks for a run from one model of s.Pre that ends in s.Post.
func checkMust(t *testing.T, where string, prog *cfg.Program, s summary.Summary, solver *smt.Solver) {
	t.Helper()
	m := solver.Model(s.Pre)
	if m == nil {
		return
	}
	start := interp.State{}
	for _, g := range prog.Globals {
		start[g] = m[g]
	}
	for seed := int64(0); seed < 300; seed++ {
		r := interp.RunProc(prog, s.Proc, start, interp.Options{Rand: rand.New(rand.NewSource(seed)), MaxSteps: 20000})
		if r.Completed && logic.Eval(s.Post, globalsOf(prog, r.Final)) {
			return
		}
	}
	t.Errorf("%s: must summary %v never witnessed concretely", where, s)
}

func globalsOf(prog *cfg.Program, st interp.State) map[lang.Var]int64 {
	out := map[lang.Var]int64{}
	for _, g := range prog.Globals {
		out[g] = st[g]
	}
	return out
}
