// The semantic-edit oracle (`make incr-smoke`): edits that change what a
// procedure computes, re-checked incrementally on every engine against a
// from-scratch run. TestIncrSmoke's edits change nothing, so they show
// that a re-check which stops at the edited procedure answers right when
// nothing moved; these show that it stops only when it may. Three kinds:
//
//   - flip: the edit turns a Safe program into one whose error is
//     reachable. Stopping at the edited procedure would keep the old
//     answer, so the re-check must fall back to the whole cone.
//   - mod: the edit writes a global the procedure never wrote (g = g;),
//     the verdict stays. Callers framed that global over the call, so
//     the re-check must fall back, for that reason.
//   - weaken: the edit changes what the procedure does from entry states
//     the program never passes it, the verdict stays. When the
//     interpreter shows a stored not-may summary of the procedure wrong
//     for the new body, its re-proof cannot hold, and the re-check must
//     fall back after it.
package incr_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/incr"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/summary"
)

// Edit kinds.
const (
	editFlip   = "flip"
	editMod    = "mod"
	editWeaken = "weaken"
)

// semanticEdit is one edited program: kind, the procedure edited, the
// global a weakening edit reacts to and its guard value, and the new
// source.
type semanticEdit struct {
	kind, proc string
	global     lang.Var
	guard      int64
	src        string
}

// insertAtTop puts stmt first in proc's body, after its locals.
func insertAtTop(src, proc, stmt string) (string, bool) {
	loc := regexp.MustCompile(`proc\s+` + proc + `\b[^{]*\{`).FindStringIndex(src)
	if loc == nil {
		return "", false
	}
	at := loc[1]
	if rest := strings.TrimLeft(src[at:], " \t\r\n"); strings.HasPrefix(rest, "locals") {
		at += strings.Index(src[at:], ";") + 1
	}
	return src[:at] + " " + stmt + src[at:], true
}

// editTargets are the procedures an edit may stop at: reachable from
// main, not main, on no call-graph cycle; in name order.
func editTargets(prog *cfg.Program) []string {
	deps := prog.CallGraph()
	reach := map[string]bool{}
	stack := []string{prog.Main}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range deps[p] {
			if !reach[c] {
				reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	var out []string
	for _, p := range prog.ProcNames() {
		cone := incr.PlanInvalidation([]string{p}, deps, prog.Main).Stale
		if reach[p] && p != prog.Main && !slices.ContainsFunc(deps[p], func(d string) bool { return slices.Contains(cone, d) }) {
			out = append(out, p)
		}
	}
	return out
}

// userGlobals are the globals a source can name.
func userGlobals(prog *cfg.Program) []lang.Var {
	return slices.DeleteFunc(slices.Clone(prog.Globals), func(g lang.Var) bool { return g == parser.ErrVar })
}

// semanticEdits generates at most one edit of each kind for src, whose
// verdict from scratch is verdict. bugOp, when not empty, is the
// property's violating operation: the flip puts it first in a
// procedure; otherwise the flip pushes a global the procedure writes far
// out of range. The weakening edit must contradict a not-may summary the
// cold run stored (sums), as the interpreter shows.
func semanticEdits(src string, verdict core.Verdict, bugOp string, sums []summary.Summary, scratch func(string) core.Verdict) []semanticEdit {
	prog := parser.MustParse(src)
	modref := prog.ModRef()
	targets := editTargets(prog)
	var out []semanticEdit
	try := func(e semanticEdit, stmt string, keep func(string) bool) bool {
		edited, ok := insertAtTop(src, e.proc, stmt)
		if !ok || !keep(edited) {
			return false
		}
		e.src = edited
		out = append(out, e)
		return true
	}
	flips := func(edited string) bool { return scratch(edited) == core.ErrorReachable }
	keeps := func(edited string) bool { return scratch(edited) == verdict }

	if verdict == core.Safe {
	flip:
		for _, p := range targets {
			if bugOp != "" {
				if try(semanticEdit{kind: editFlip, proc: p}, bugOp, flips) {
					break
				}
				continue
			}
			for _, g := range userGlobals(prog) {
				flip := semanticEdit{kind: editFlip, proc: p}
				if modref[p].Mod[g] && (try(flip, fmt.Sprintf("%s = %s + 100;", g, g), flips) ||
					try(flip, fmt.Sprintf("%s = %s - 100;", g, g), flips)) {
					break flip
				}
			}
		}
	}
mod:
	for _, p := range targets {
		for _, g := range userGlobals(prog) {
			if !modref[p].Mod[g] && try(semanticEdit{kind: editMod, proc: p}, fmt.Sprintf("%s = %s;", g, g), func(string) bool { return true }) {
				break mod
			}
		}
	}
weaken:
	for _, p := range targets {
		for _, g := range userGlobals(prog) {
			if !modref[p].Mod[g] {
				continue
			}
			for _, guard := range []int64{-1, 1001} {
				cond := fmt.Sprintf("%s < 0", g)
				if guard > 0 {
					cond = fmt.Sprintf("%s > 1000", g)
				}
				stmt := fmt.Sprintf("if (%s) { %s = 7; }", cond, g)
				contradicts := func(edited string) bool {
					return keeps(edited) && contradicted(parser.MustParse(edited), p, g, guard, sums)
				}
				if try(semanticEdit{kind: editWeaken, proc: p, global: g, guard: guard}, stmt, contradicts) {
					break weaken
				}
			}
		}
	}
	return out
}

// contradicted reports whether a run of proc in prog, from an entry state
// with g at guard and every other global 0 or 1, ends in the
// postcondition of one of proc's not-may summaries in sums whose
// precondition admits that state.
func contradicted(prog *cfg.Program, proc string, g lang.Var, guard int64, sums []summary.Summary) bool {
	others := slices.DeleteFunc(userGlobals(prog), func(v lang.Var) bool { return v == g })
	for _, s := range sums {
		if s.Proc != proc || s.Kind != summary.NotMay {
			continue
		}
		for bits := 0; bits < 1<<len(others); bits++ {
			entry := interp.State{g: guard, parser.ErrVar: 0}
			for i, v := range others {
				entry[v] = int64(bits >> i & 1)
			}
			if !logic.Eval(s.Pre, entry) {
				continue
			}
			for seed := int64(0); seed < 8; seed++ {
				run := interp.RunProc(prog, proc, entry, interp.Options{Rand: rand.New(rand.NewSource(seed))})
				if run.Completed && logic.Eval(s.Post, run.Final) {
					return true
				}
			}
		}
	}
	return false
}

// semanticEngine runs one incremental check of prog over st.
type semanticEngine struct {
	name string
	run  func(prog *cfg.Program, st store.Store) (core.Verdict, *core.Cutoff)
}

var semanticEngines = []semanticEngine{
	{"barrier", func(prog *cfg.Program, st store.Store) (core.Verdict, *core.Cutoff) {
		r := core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 4, Store: st, Incremental: true}).Run(core.AssertionQuestion(prog))
		return r.Verdict, r.Cutoff
	}},
	{"streaming", func(prog *cfg.Program, st store.Store) (core.Verdict, *core.Cutoff) {
		r := core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 4, Async: true, Store: st, Incremental: true}).Run(core.AssertionQuestion(prog))
		return r.Verdict, r.Cutoff
	}},
	{"2-node cluster", func(prog *cfg.Program, st store.Store) (core.Verdict, *core.Cutoff) {
		r := core.NewDistributed(prog, core.DistOptions{Punch: maymust.New(), Nodes: 2, ThreadsPerNode: 2, Store: st, Incremental: true}).Run(core.AssertionQuestion(prog))
		return r.Verdict, r.Cutoff
	}},
}

// TestSemanticEdits: on the corpus and the parport four, every semantic
// edit re-checked over a store its engine filled from the unedited
// program answers what a from-scratch run answers, and the cutoff holds
// or falls back as the kind of the edit says it must.
func TestSemanticEdits(t *testing.T) {
	type target struct{ name, src, bugOp string }
	var targets []target
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{name: filepath.Base(f), src: string(raw)})
	}
	for _, prop := range []string{"MarkPowerDown", "PowerDownFail", "PowerUpFail", "RemoveLockMnSurpriseRemove"} {
		c := drivers.NamedCheck("parport", prop, false)
		targets = append(targets, target{name: c.ID(), src: drivers.Source(c.Config), bugOp: drivers.Properties[prop].BugOp})
	}

	scratch := func(src string) core.Verdict {
		prog := parser.MustParse(src)
		return core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 4}).Run(core.AssertionQuestion(prog)).Verdict
	}
	kinds := map[string]int{}
	weakenFellBack := 0
	for _, tg := range targets {
		prog := parser.MustParse(tg.src)
		verdict := scratch(tg.src)
		cold := store.NewMem()
		semanticEngines[0].run(prog, cold)
		sums, err := cold.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range semanticEdits(tg.src, verdict, tg.bugOp, sums, scratch) {
			kinds[e.kind]++
			want := scratch(e.src)
			edited := parser.MustParse(e.src)
			for _, eng := range semanticEngines {
				t.Run(fmt.Sprintf("%s/%s:%s/%s", tg.name, e.kind, e.proc, eng.name), func(t *testing.T) {
					st := store.NewMem()
					if v, _ := eng.run(prog, st); v != verdict {
						t.Fatalf("cold run: %v, from scratch %v", v, verdict)
					}
					stored, err := st.Load()
					if err != nil {
						t.Fatal(err)
					}
					got, cut := eng.run(edited, st)
					if got != want {
						t.Fatalf("re-check %v, from scratch %v", got, want)
					}
					if cut == nil || cut.Proc != e.proc {
						t.Fatalf("cutoff %+v, want one tried at %s", cut, e.proc)
					}
					switch e.kind {
					case editFlip:
						if cut.Held {
							t.Fatalf("the edit flipped the verdict, yet the cutoff held: %v", cut)
						}
					case editMod:
						if cut.Held || cut.Reason != "Mod set grew" {
							t.Fatalf("the edit grew the Mod set, cutoff %v", cut)
						}
					case editWeaken:
						if !contradicted(edited, e.proc, e.global, e.guard, stored) {
							return
						}
						if cut.Held || !strings.HasPrefix(cut.Reason, "a re-proof ended ") {
							t.Fatalf("a stored not-may summary of %s is wrong for the new body, cutoff %v", e.proc, cut)
						}
						weakenFellBack++
					}
				})
			}
		}
	}
	t.Logf("edits by kind %v; %d weakening re-checks fell back", kinds, weakenFellBack)
	for _, k := range []string{editFlip, editMod, editWeaken} {
		if kinds[k] == 0 {
			t.Errorf("no %s edit was generated: the oracle does not cover that kind", k)
		}
	}
	if weakenFellBack == 0 {
		t.Error("no weakening edit contradicted a stored summary: the re-proof's failure path went unchecked")
	}
}
