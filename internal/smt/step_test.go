package smt

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
)

var stepVars = []lang.Var{"w", "x", "y", "z"}

// genIntExpr decodes a small linear expression over stepVars.
func genIntExpr(src *fuzzSrc, depth int) lang.IntExpr {
	switch op := src.next() % 7; {
	case depth == 0 || op < 2:
		if src.next()%3 == 0 {
			return lang.C(int64(src.next()%11) - 5)
		}
		return lang.Ref{V: stepVars[src.next()%4]}
	case op == 2:
		return lang.Add{X: genIntExpr(src, depth-1), Y: genIntExpr(src, depth-1)}
	case op == 3:
		return lang.Sub{X: genIntExpr(src, depth-1), Y: genIntExpr(src, depth-1)}
	case op == 4:
		return lang.Neg{X: genIntExpr(src, depth-1)}
	default:
		return lang.Mul{K: int64(src.next()%7) - 3, X: genIntExpr(src, depth-1)}
	}
}

// genBoolExpr decodes a condition: comparisons under and, or and not.
func genBoolExpr(src *fuzzSrc, depth int) lang.BoolExpr {
	switch op := src.next() % 6; {
	case depth == 0 || op < 3:
		return lang.CmpE(genIntExpr(src, 1), lang.CmpOp(src.next()%6), genIntExpr(src, 1))
	case op == 3:
		return lang.And{X: genBoolExpr(src, depth-1), Y: genBoolExpr(src, depth-1)}
	case op == 4:
		return lang.Or{X: genBoolExpr(src, depth-1), Y: genBoolExpr(src, depth-1)}
	default:
		return lang.Not{X: genBoolExpr(src, depth-1)}
	}
}

// genStmt decodes an assign, assume, havoc or skip over stepVars.
func genStmt(src *fuzzSrc) lang.Stmt {
	switch src.next() % 4 {
	case 0:
		return lang.Assign{Lhs: stepVars[src.next()%4], Rhs: genIntExpr(src, 2)}
	case 1:
		return lang.Assume{Cond: genBoolExpr(src, 2)}
	case 2:
		return lang.Havoc{V: stepVars[src.next()%4]}
	}
	return lang.Skip{}
}

// genRegion decodes a region formula: mostly a cube of up to eight
// atoms over stepVars, equalities among them, sometimes a formula with
// disjunctions, where the kernel must leave the check to Sat.
func genRegion(src *fuzzSrc) logic.Formula {
	if src.next()%5 == 0 {
		return genFormula(src, 2)
	}
	n := int(src.next() % 9)
	atoms := make([]logic.Formula, 0, n)
	for range n {
		l := logic.LinConst(int64(src.next()%13) - 6)
		for _, v := range stepVars {
			if c := int64(src.next()%7) - 3; c != 0 && src.next()%2 == 0 {
				l = l.Add(logic.LinVar(v).Scale(c))
			}
		}
		if src.next()%6 == 0 {
			atoms = append(atoms, logic.EQ(l))
		} else {
			atoms = append(atoms, logic.LE(l))
		}
	}
	return logic.Conj(atoms...)
}

// hasOr reports whether f holds a disjunction.
func hasOr(f logic.Formula) bool {
	switch f := f.(type) {
	case logic.Or:
		return true
	case logic.And:
		for _, g := range f.Fs {
			if hasOr(g) {
				return true
			}
		}
	}
	return false
}

// FuzzStepKernelAgainstFormula holds the one-step check decided in the
// cube kernel to the check it replaces: Sat on Conj(from, Pre(stmt, to,
// Over)) built as a formula, shut exactly when Sat proves it
// unsatisfiable. The kernel must decide whenever from and to hold no
// disjunction, and StepFeasible must answer the same, memoized or not.
func FuzzStepKernelAgainstFormula(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 1, 3, 1, 2, 0, 4, 5, 1, 0, 6, 2, 1, 3, 1, 0, 2, 4, 1, 1, 0, 2})
	f.Add([]byte{1, 3, 4, 0, 2, 5, 1, 3, 4, 6, 2, 1, 0, 0, 5, 2, 1, 1, 1, 0, 2, 3, 4, 1, 0})
	f.Add([]byte{2, 1, 4, 6, 1, 1, 2, 0, 2, 1, 1, 4, 5, 1, 2, 0, 1, 6, 1, 2, 1, 0, 1, 1, 3})
	f.Add([]byte{3, 8, 2, 5, 1, 0, 1, 4, 0, 1, 1, 2, 8, 6, 0, 1, 1, 1, 2, 1, 3, 1, 0, 0, 1})
	f.Add([]byte{0, 2, 2, 4, 3, 1, 1, 0, 9, 6, 4, 2, 2, 1, 1, 3, 2, 5, 0, 1, 0, 0, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		src := &fuzzSrc{data: data}
		stmt := genStmt(src)
		from, to := genRegion(src), genRegion(src)
		r := New().Sat(logic.Conj(from, logic.Pre(stmt, to, logic.Over)))
		want := r.Sat || !r.Known
		s := New()
		open, decided := s.stepKernel(stmt, from, to)
		if decided && open != want {
			t.Fatalf("%v from %v to %v: kernel says open %v, Sat on the formula %v", stmt, from, to, open, want)
		}
		if !decided && !hasOr(from) && !hasOr(to) {
			t.Fatalf("%v from %v to %v: the kernel left a check without disjunctions to Sat", stmt, from, to)
		}
		if calls := s.StatsSnapshot().SatCalls; decided != (calls == 1) {
			t.Fatalf("kernel decided %v and counted %d Sat calls", decided, calls)
		}
		for range 2 {
			if got := s.StepFeasible(1, stmt, from, to); got != want {
				t.Fatalf("%v from %v to %v: StepFeasible %v, Sat on the formula %v", stmt, from, to, got, want)
			}
		}
	})
}

// genStore decodes a store: some of stepVars bound to a small term over
// stepVars, the others left to stand for themselves. A term may mention
// the variable it is bound to, so only a substitution made all at once
// gets it right.
func genStore(src *fuzzSrc) map[lang.Var]logic.Lin {
	sub := map[lang.Var]logic.Lin{}
	for _, v := range stepVars {
		if src.next()%3 == 0 {
			continue
		}
		l := logic.LinConst(int64(src.next()%9) - 4)
		for _, u := range stepVars {
			if c := int64(src.next()%7) - 3; c != 0 && src.next()%2 == 0 {
				l = l.Add(logic.LinVar(u).Scale(c))
			}
		}
		sub[v] = l
	}
	return sub
}

// FuzzMeetKernelAgainstFormula holds the membership check decided in the
// cube kernel to the check it replaces: Sat on Conj(path, SubstMap(f,
// sub)) built as a formula, false exactly when Sat proves it
// unsatisfiable. The path may hold disjunctions, which the kernel walks;
// the kernel must decide whenever f holds none, and Meets must answer the
// same and count one Sat call either way.
func FuzzMeetKernelAgainstFormula(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Add([]byte{0, 1, 2, 3, 1, 3, 1, 2, 0, 4, 5, 1, 0, 6, 2, 1, 3, 1, 0, 2, 4, 1, 1, 0, 2, 3, 1, 2, 0, 1})
	f.Add([]byte{4, 0, 3, 2, 4, 4, 1, 0, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 1, 1, 2, 0, 3, 5, 1})
	f.Add([]byte{5, 9, 1, 1, 1, 1, 9, 2, 2, 2, 2, 9, 3, 3, 3, 3, 9, 4, 4, 4, 4, 0, 6, 2, 1, 1, 3, 2, 1, 0})
	f.Add([]byte{3, 8, 2, 5, 1, 0, 1, 4, 0, 1, 1, 2, 8, 6, 0, 1, 1, 1, 2, 1, 3, 1, 0, 0, 1, 2, 2, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		src := &fuzzSrc{data: data}
		var path logic.Formula
		if src.next()%3 == 0 {
			path = genRegion(src)
		} else {
			path = logic.Conj(genFormula(src, 2), genFormula(src, 1))
		}
		region, sub := genRegion(src), genStore(src)
		formula := logic.Conj(path, logic.SubstMap(region, sub))
		r := New().Sat(formula)
		want := r.Sat || !r.Known
		s := New()
		open, decided := s.meetKernel(path, region, sub)
		if decided && open != want {
			t.Fatalf("%v meets %v under %v: kernel says %v, Sat on %v %v", path, region, sub, open, formula, want)
		}
		if !decided && !hasOr(region) {
			t.Fatalf("%v meets %v under %v: the kernel left a region without disjunctions to Sat", path, region, sub)
		}
		if calls := s.StatsSnapshot().SatCalls; decided != (calls == 1) {
			t.Fatalf("kernel decided %v and counted %d Sat calls", decided, calls)
		}
		s = New()
		if got := s.Meets(path, region, sub); got != want {
			t.Fatalf("%v meets %v under %v: Meets %v, Sat on %v %v", path, region, sub, got, formula, want)
		}
		if calls := s.StatsSnapshot().SatCalls; calls != 1 {
			t.Fatalf("Meets counted %d Sat calls", calls)
		}
	})
}
