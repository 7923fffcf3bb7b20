package punch

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/smt"
)

// TestOnePunchKernel is a structural lint: the symbolic-execution pieces
// the three instantiations share — the statement image (an Assign's
// right-hand side turned into a term), the renaming of a call crossing and
// of the entry state, the pins of a must summary and of a point, and the
// copy of a store — are written once, in kernel.go. must, may and maymust
// once each carried a copy; a fourth cannot grow back unnoticed. Comments
// and definitions do not count.
func TestOnePunchKernel(t *testing.T) {
	inKernel := []string{"logic.FromInt(", "logic.Rename(", "logic.LinConst(", "Kind: summary.Must", "maps.Clone("}
	pieces := append(inKernel, "cloneStore(") // and the copies' own store clone
	kernel, err := os.ReadFile("kernel.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inKernel {
		if !strings.Contains(string(kernel), p) {
			t.Errorf("kernel.go has no %s: the lint is looking for the wrong pieces", p)
		}
	}
	files, err := filepath.Glob(filepath.Join("*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, file := range files {
		if dir := filepath.Dir(file); strings.HasSuffix(file, "_test.go") || !slices.Contains([]string{"must", "may", "maymust"}, dir) {
			continue
		}
		seen++
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if strings.HasPrefix(code, "func ") {
				continue
			}
			for _, p := range pieces {
				if strings.Contains(code, p) {
					t.Errorf("%s:%d has %s — only the kernel (kernel.go) may", file, i+1, p)
				}
			}
		}
	}
	if seen < 3 {
		t.Errorf("read %d instantiation files, want at least 3: the lint is looking at the wrong files", seen)
	}
}

// TestKernelAgainstInterp holds the kernel's symbolic answers to the
// concrete interpreter on a few valuations of the globals g, h, k: the
// image of each simple statement and a call crossed with a summary of the
// callee (p's one statement, from every valuation), a must summary built
// from a witness of p (every valuation in its precondition runs into its
// postcondition), and the point test (a point has one model on a grid,
// a non-point more).
func TestKernelAgainstInterp(t *testing.T) {
	g, h, k := lang.Var("g"), lang.Var("h"), lang.Var("k")
	globals := []lang.Var{g, h, k}
	le := func(x, y lang.IntExpr) lang.BoolExpr { return lang.CmpE(x, lang.Le, y) }
	lin := func(v lang.Var, c int64) logic.Lin { return logic.LinVar(v).AddConst(c) }
	var vals []interp.State
	for _, x := range []int64{-3, 0, 4, 5} {
		for _, y := range []int64{-2, 4, 7} {
			vals = append(vals, interp.State{g: x, h: y, k: x - y})
		}
	}
	const havoc = 11
	cases := []struct {
		name   string
		stmt   lang.Stmt     // p's one statement
		callee lang.Stmt     // c's one statement, when stmt calls c
		post   logic.Formula // the summary of c crossed with; the witness's postcondition
		under  bool          // with witness: under-project the image
		point  logic.Formula // the formula of a point test
		want   bool          // its answer
	}{
		{name: "assign", stmt: lang.Assign{Lhs: g, Rhs: lang.Add{X: lang.Mul{K: 2, X: lang.V("h")}, Y: lang.Sub{X: lang.C(3), Y: lang.V("k")}}}},
		{name: "assume", stmt: lang.Assume{Cond: le(lang.V("g"), lang.V("h"))}},
		{name: "havoc", stmt: lang.Havoc{V: h}},
		{name: "skip", stmt: lang.Skip{}},
		{name: "cross", stmt: lang.Call{Proc: "c"}, callee: lang.Assign{Lhs: g, Rhs: lang.Add{X: lang.V("g"), Y: lang.V("h")}},
			post: logic.LEq(logic.LinVar(g), lin(h, 4))},
		{name: "must summary", stmt: lang.Assign{Lhs: g, Rhs: lang.Add{X: lang.V("h"), Y: lang.C(1)}}, post: logic.LEq(logic.LinConst(5), logic.LinVar(g))},
		{name: "must summary under", stmt: lang.Assign{Lhs: g, Rhs: lang.Add{X: lang.V("h"), Y: lang.C(1)}}, post: logic.LEq(logic.LinConst(5), logic.LinVar(g)), under: true},
		{name: "point", point: logic.Conj(logic.Eq(logic.LinVar(g), logic.LinConst(3)), logic.LEq(logic.LinVar(h), lin(g, 1)), logic.LEq(lin(g, 1), logic.LinVar(h))), want: true},
		{name: "not a point", point: logic.Conj(logic.LEq(logic.LinVar(g), logic.LinConst(3)), logic.Eq(logic.LinVar(h), logic.LinVar(g))), want: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := &Meter{Solver: smt.New()}
			if c.point != nil {
				models := 0
				for x := int64(-6); x <= 6; x++ {
					for y := int64(-6); y <= 6; y++ {
						if logic.Eval(c.point, map[lang.Var]int64{g: x, h: y}) {
							models++
						}
					}
				}
				if got, _ := m.IsPoint(c.point); got != c.want || (models == 1) != c.want {
					t.Fatalf("IsPoint(%v) = %v with %d models on the grid, want %v", c.point, got, models, c.want)
				}
				return
			}
			prog := oneStatement(t, globals, c.stmt, c.callee)
			syms := NewSyms("$t", 1)
			path, store, entry := Entry(logic.True, &syms, globals)
			var after Store
			// The image of a formula under the rebinding or the crossing,
			// without a copy, is its image under the copied store.
			probe := logic.Conj(logic.LEq(logic.LinVar(g), logic.LinVar(h)), logic.Not(logic.Eq(lin(h, 2), logic.LinVar(k))))
			var over logic.Formula
			if c.callee != nil {
				cross, post := Cross(store, c.post, globals, prog.ModRef()["c"], &syms)
				after = cross.Apply(store)
				if want := logic.SubstMap(c.post, after); logic.KeyID(post) != logic.KeyID(want) {
					t.Fatalf("the crossing's post is %v, %v over the copied store", post, want)
				}
				path, over = logic.Conj(path, post), cross.SubstMap(probe, store)
			} else {
				var bind Rebind
				path, bind = Image(path, store, c.stmt, &syms)
				after, over = bind.Apply(store), bind.SubstMap(probe, store)
			}
			if want := logic.SubstMap(probe, after); logic.KeyID(over) != logic.KeyID(want) {
				t.Fatalf("%v over the rebinding is %v, over the copied store %v", probe, over, want)
			}
			if c.callee == nil && c.post != nil {
				checkMustSummary(t, m, prog, c.post, c.under, entry, after, path, vals)
				return
			}
			minted := map[lang.Var]bool{} // by Entry
			for _, x := range entry {
				minted[x] = true
			}
			fresh := func(l logic.Lin) bool { return len(l.Vars) == 1 && !minted[l.Vars[0]] }
			for _, v := range globals {
				if c.callee != nil && fresh(after[v]) != prog.ModRef()["c"].Mod[v] {
					t.Fatalf("crossing c: %s is %v, want a fresh symbol exactly for a modified global", v, after[v])
				}
			}
			for _, val := range vals {
				run := interp.RunProc(prog, "p", val, interp.Options{HavocValues: []int64{havoc}})
				model := map[lang.Var]int64{}
				for _, v := range globals {
					model[entry[v]] = val[v]
					if fresh(after[v]) {
						model[after[v].Vars[0]] = run.Final[v] // the callee's or the havoc's value
					}
				}
				// The path condition holds where the run completes; crossed,
				// where the summary's postcondition holds on the run's end.
				want := run.Completed
				if c.callee != nil {
					want = logic.Eval(c.post, run.Final)
				}
				if got := logic.Eval(path, model); got != want {
					t.Fatalf("from %v: path condition %v holds %v, want %v (run ends in %v)", val, path, got, want, run.Final)
				}
				for _, v := range globals {
					if got := after[v].Eval(model); run.Completed && got != run.Final[v] {
						t.Fatalf("from %v: %s is %v = %d, the run ends with %d", val, v, after[v], got, run.Final[v])
					}
				}
			}
		})
	}
}

// checkMustSummary builds the must summary of p's one step reaching post
// and runs p from every valuation: one in the precondition ends in the
// summary's and the question's postcondition. The precondition pins only
// h, the global the witness constrains; the postcondition frames it.
func checkMustSummary(t *testing.T, m *Meter, prog *cfg.Program, post logic.Formula, under bool, entry map[lang.Var]lang.Var, store Store, path logic.Formula, vals []interp.State) {
	t.Helper()
	hit := logic.Conj(path, logic.SubstMap(post, store))
	model := m.Solver.Model(hit)
	if model == nil {
		t.Fatalf("no witness of %v", hit)
	}
	sum := m.MustSummary(Witness{Proc: "p", Mod: prog.ModRef()["p"], Globals: prog.Globals, Entry: entry, Store: store, Hit: hit, Model: model}, under)
	if vs := logic.FreeVars(sum.Pre); !slices.Equal(vs, []lang.Var{"h"}) {
		t.Fatalf("precondition %v pins %v, want h alone", sum.Pre, vs)
	}
	if !slices.Contains(logic.FreeVars(sum.Post), "h") {
		t.Fatalf("postcondition %v does not frame h", sum.Post)
	}
	inPre := 0
	for _, val := range vals {
		pinned := maps.Clone(val)
		pinned["h"] = model[entry["h"]]
		for _, val := range []interp.State{val, pinned} {
			if !logic.Eval(sum.Pre, val) {
				continue
			}
			inPre++
			run := interp.RunProc(prog, "p", val, interp.Options{})
			if !run.Completed || !logic.Eval(sum.Post, run.Final) || !logic.Eval(post, run.Final) {
				t.Fatalf("summary %v ⇒ %v: from %v the run ends in %v", sum.Pre, sum.Post, val, run.Final)
			}
		}
	}
	if inPre < 2 {
		t.Fatalf("%d valuations meet %v, want several: g and k stay free", inPre, sum.Pre)
	}
}

// oneStatement is the program whose procedure p has the one edge stmt;
// when callee is set, p's statement calls c, whose one edge it is.
func oneStatement(t *testing.T, globals []lang.Var, stmt, callee lang.Stmt) *cfg.Program {
	t.Helper()
	proc := func(name string, s lang.Stmt) *cfg.Proc {
		b := cfg.NewProc(name)
		exit := b.NewNode()
		b.AddEdge(b.Entry(), exit, s)
		return b.Finish(exit)
	}
	procs := []*cfg.Proc{proc("p", stmt)}
	if callee != nil {
		procs = append(procs, proc("c", callee))
	}
	prog, err := cfg.NewProgram("kernel", globals, "p", procs...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
