package cfg

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

func leafProc(name string) *Proc {
	b := NewProc(name)
	exit := b.NewNode()
	b.AddEdge(b.Entry(), exit, lang.Skip{})
	return b.Finish(exit)
}

func callerProc(name string, callees ...string) *Proc {
	b := NewProc(name)
	cur := b.Entry()
	for _, c := range callees {
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Call{Proc: c})
		cur = next
	}
	return b.Finish(cur)
}

func TestBuilderAndValidate(t *testing.T) {
	prog, err := NewProgram("t", []lang.Var{"g"}, "main",
		callerProc("main", "leaf"), leafProc("leaf"))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Proc(prog.Main) == nil || prog.Proc("leaf") == nil {
		t.Fatal("procs missing")
	}
	cg := prog.CallGraph()
	if len(cg["main"]) != 1 || cg["main"][0] != "leaf" {
		t.Fatalf("call graph: %v", cg)
	}
	if !strings.Contains(prog.String(), "call leaf") {
		t.Fatal("String missing edges")
	}
}

func TestValidateErrors(t *testing.T) {
	// Undefined callee.
	if _, err := NewProgram("t", nil, "main", callerProc("main", "ghost")); err == nil {
		t.Fatal("undefined callee accepted")
	}
	// Missing main.
	if _, err := NewProgram("t", nil, "main", leafProc("other")); err == nil {
		t.Fatal("missing main accepted")
	}
	// Undeclared variable.
	b := NewProc("main")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), exit, lang.Assign{Lhs: "x", Rhs: lang.C(1)})
	if _, err := NewProgram("t", nil, "main", b.Finish(exit)); err == nil {
		t.Fatal("undeclared variable accepted")
	}
	// Edge leaving exit.
	b2 := NewProc("main")
	exit2 := b2.NewNode()
	b2.AddEdge(b2.Entry(), exit2, lang.Skip{})
	b2.AddEdge(exit2, b2.Entry(), lang.Skip{})
	if _, err := NewProgram("t", nil, "main", b2.Finish(exit2)); err == nil {
		t.Fatal("edge from exit accepted")
	}
	// Duplicate procedure.
	if _, err := NewProgram("t", nil, "main", leafProc("main"), leafProc("main")); err == nil {
		t.Fatal("duplicate proc accepted")
	}
	// Local shadowing a global.
	b3 := NewProc("main", "g")
	exit3 := b3.NewNode()
	b3.AddEdge(b3.Entry(), exit3, lang.Skip{})
	if _, err := NewProgram("t", []lang.Var{"g"}, "main", b3.Finish(exit3)); err == nil {
		t.Fatal("shadowing accepted")
	}
}

func buildModRefProg(t *testing.T) *Program {
	t.Helper()
	// main calls a; a writes g1 and calls b; b reads g2, writes g3.
	mk := func(name string, stmts []lang.Stmt) *Proc {
		b := NewProc(name)
		cur := b.Entry()
		for _, s := range stmts {
			next := b.NewNode()
			b.AddEdge(cur, next, s)
			cur = next
		}
		return b.Finish(cur)
	}
	prog, err := NewProgram("t", []lang.Var{"g1", "g2", "g3"}, "main",
		mk("main", []lang.Stmt{lang.Call{Proc: "a"}}),
		mk("a", []lang.Stmt{lang.Assign{Lhs: "g1", Rhs: lang.C(1)}, lang.Call{Proc: "b"}}),
		mk("b", []lang.Stmt{lang.Assume{Cond: lang.CmpE(lang.V("g2"), lang.Gt, lang.C(0))}, lang.Havoc{V: "g3"}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestModRefTransitive(t *testing.T) {
	prog := buildModRefProg(t)
	mr := prog.ModRef()

	if !mr["b"].Ref["g2"] || !mr["b"].Mod["g3"] || mr["b"].Mod["g1"] {
		t.Fatalf("b: %+v", mr["b"])
	}
	// a inherits b's effects plus its own write of g1.
	if !mr["a"].Mod["g1"] || !mr["a"].Mod["g3"] || !mr["a"].Ref["g2"] {
		t.Fatalf("a: %+v", mr["a"])
	}
	// main inherits everything transitively.
	if !mr["main"].Mod["g1"] || !mr["main"].Mod["g3"] || !mr["main"].Ref["g2"] {
		t.Fatalf("main: %+v", mr["main"])
	}
	if mr["main"].Mod["g2"] {
		t.Fatal("g2 is never written")
	}
	if !mr["main"].Touched("g2") || mr["b"].Touched("g1") {
		t.Fatal("Touched wrong")
	}
}

func TestModRefLocalsExcluded(t *testing.T) {
	b := NewProc("main", "x")
	exit := b.NewNode()
	b.AddEdge(b.Entry(), exit, lang.Assign{Lhs: "x", Rhs: lang.C(1)})
	prog, err := NewProgram("t", []lang.Var{"g"}, "main", b.Finish(exit))
	if err != nil {
		t.Fatal(err)
	}
	mr := prog.ModRef()
	if len(mr["main"].Mod) != 0 || len(mr["main"].Ref) != 0 {
		t.Fatalf("locals leaked into mod/ref: %+v", mr["main"])
	}
}

func TestDotExport(t *testing.T) {
	prog, err := NewProgram("t", []lang.Var{"g"}, "main",
		callerProc("main", "leaf"), leafProc("leaf"))
	if err != nil {
		t.Fatal(err)
	}
	dot := prog.Dot()
	for _, want := range []string{"digraph", "cluster_0", "call leaf", "style=dashed", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// TestStmtIDIsContentIdentity: NewProgram numbers statements by what they
// say — the same statement on two edges or in two procedures has one id,
// different statements have different ones, none is 0 — and a statement
// built twice from equal parts is the same statement.
func TestStmtIDIsContentIdentity(t *testing.T) {
	inc := func() lang.Stmt { return lang.Assign{Lhs: "g", Rhs: lang.Add{X: lang.V("g"), Y: lang.C(1)}} }
	mk := func(name string, stmts ...lang.Stmt) *Proc {
		b := NewProc(name)
		cur := b.Entry()
		for _, s := range stmts {
			next := b.NewNode()
			b.AddEdge(cur, next, s)
			cur = next
		}
		return b.Finish(cur)
	}
	guard := lang.Assume{Cond: lang.CmpE(lang.V("g"), lang.Le, lang.C(3))}
	main := mk("main", inc(), guard, inc(), lang.Call{Proc: "leaf"}, lang.Skip{})
	leaf := mk("leaf", lang.Skip{}, inc(), lang.Assign{Lhs: "g", Rhs: lang.Add{X: lang.V("g"), Y: lang.C(2)}})
	if main.Edges[0].StmtID != 0 {
		t.Fatal("a procedure outside a program has statement ids")
	}
	if _, err := NewProgram("t", []lang.Var{"g"}, "main", main, leaf); err != nil {
		t.Fatal(err)
	}
	byStmt := map[string]uint32{}
	byID := map[uint32]string{}
	for _, p := range []*Proc{main, leaf} {
		for _, e := range p.Edges {
			s := e.Stmt.String()
			if e.StmtID == 0 {
				t.Fatalf("%s: %q has no id", p.Name, s)
			}
			if id, ok := byStmt[s]; ok && id != e.StmtID {
				t.Fatalf("%q has ids %d and %d", s, id, e.StmtID)
			}
			if other, ok := byID[e.StmtID]; ok && other != s {
				t.Fatalf("id %d names %q and %q", e.StmtID, other, s)
			}
			byStmt[s], byID[e.StmtID] = e.StmtID, s
		}
	}
	if len(byID) != 5 {
		t.Fatalf("%d ids for 5 distinct statements: %v", len(byID), byID)
	}
}
