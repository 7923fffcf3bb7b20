package lang

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The fmt render the printer replaced: every stored manifest and every
// non-incremental store fingerprint was taken over these bytes.
func refInt(e IntExpr) string {
	switch e := e.(type) {
	case Const:
		return fmt.Sprintf("%d", e.Val)
	case Ref:
		return string(e.V)
	case Add:
		return fmt.Sprintf("(%s + %s)", refOperand(e.X), refOperand(e.Y))
	case Sub:
		return fmt.Sprintf("(%s - %s)", refOperand(e.X), refOperand(e.Y))
	case Neg:
		return fmt.Sprintf("-%s", refOperand(e.X))
	case Mul:
		return fmt.Sprintf("%d*%s", e.K, refOperand(e.X))
	}
	return fmt.Sprintf("%s", e)
}

func refOperand(e IntExpr) string {
	if e == nil {
		return fmt.Sprintf("%s", e)
	}
	return refInt(e)
}

func refBool(e BoolExpr) string {
	sub := func(x BoolExpr) string {
		if x == nil {
			return fmt.Sprintf("%s", x)
		}
		return refBool(x)
	}
	switch e := e.(type) {
	case BoolConst:
		if e.Val {
			return "true"
		}
		return "false"
	case Cmp:
		op := fmt.Sprintf("CmpOp(%d)", int(e.Op))
		if e.Op >= Lt && e.Op <= Ne {
			op = [...]string{"<", "<=", ">", ">=", "==", "!="}[e.Op]
		}
		return fmt.Sprintf("%s %s %s", refOperand(e.X), op, refOperand(e.Y))
	case And:
		return fmt.Sprintf("(%s && %s)", sub(e.X), sub(e.Y))
	case Or:
		return fmt.Sprintf("(%s || %s)", sub(e.X), sub(e.Y))
	case Not:
		return fmt.Sprintf("!(%s)", sub(e.X))
	}
	return fmt.Sprintf("%s", e)
}

func refStmt(s Stmt) string {
	switch s := s.(type) {
	case Assign:
		return fmt.Sprintf("%s = %s", s.Lhs, refOperand(s.Rhs))
	case Assume:
		if s.Cond == nil {
			return fmt.Sprintf("assume(%s)", s.Cond)
		}
		return fmt.Sprintf("assume(%s)", refBool(s.Cond))
	case Havoc:
		return fmt.Sprintf("havoc %s", s.V)
	case Call:
		return fmt.Sprintf("call %s", s.Proc)
	case Skip:
		return "skip"
	}
	return fmt.Sprintf("%s", s)
}

func randInt(r *rand.Rand, depth int) IntExpr {
	k := []int64{0, 1, -1, 7, -42, math.MaxInt64, math.MinInt64}[r.Intn(7)]
	if depth == 0 {
		switch r.Intn(5) {
		case 0:
			return nil
		case 1, 2:
			return Const{Val: k}
		}
		return Ref{V: Var([]string{"x", "__err", "f__arg0", ""}[r.Intn(4)])}
	}
	switch r.Intn(4) {
	case 0:
		return Add{X: randInt(r, depth-1), Y: randInt(r, depth-1)}
	case 1:
		return Sub{X: randInt(r, depth-1), Y: randInt(r, depth-1)}
	case 2:
		return Neg{X: randInt(r, depth-1)}
	}
	return Mul{K: k, X: randInt(r, depth-1)}
}

func randBool(r *rand.Rand, depth int) BoolExpr {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return BoolConst{Val: r.Intn(2) == 0}
		}
		return Cmp{Op: CmpOp(r.Intn(8) - 1), X: randInt(r, r.Intn(3)), Y: randInt(r, r.Intn(3))}
	}
	switch r.Intn(3) {
	case 0:
		return And{X: randBool(r, depth-1), Y: randBool(r, depth-1)}
	case 1:
		return Or{X: randBool(r, depth-1), Y: randBool(r, depth-1)}
	}
	return Not{X: randBool(r, depth-1)}
}

// TestPrinterMatchesFmtRender: on random statements, nil operands and
// out-of-range operators included, AppendStmt and every String method
// give the bytes of the fmt render.
func TestPrinterMatchesFmtRender(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var s Stmt
		switch r.Intn(5) {
		case 0:
			s = Assign{Lhs: "x", Rhs: randInt(r, r.Intn(4))}
		case 1:
			s = Assume{Cond: randBool(r, r.Intn(4))}
		case 2:
			s = Havoc{V: "y"}
		case 3:
			s = Call{Proc: "p"}
		default:
			s = Skip{}
		}
		want := refStmt(s)
		if got := string(AppendStmt([]byte("> "), s)); got != "> "+want {
			t.Fatalf("AppendStmt(%#v) = %q, want %q", s, got, "> "+want)
		}
		if got := s.String(); got != want {
			t.Fatalf("%#v.String() = %q, want %q", s, got, want)
		}
		if a, ok := s.(Assign); ok && a.Rhs != nil && a.Rhs.String() != refInt(a.Rhs) {
			t.Fatalf("%#v.String() = %q, want %q", a.Rhs, a.Rhs.String(), refInt(a.Rhs))
		}
		if a, ok := s.(Assume); ok && a.Cond != nil && a.Cond.String() != refBool(a.Cond) {
			t.Fatalf("%#v.String() = %q, want %q", a.Cond, a.Cond.String(), refBool(a.Cond))
		}
	}
	if got := AppendStmt(nil, nil); string(got) != fmt.Sprintf("%s", Stmt(nil)) {
		t.Fatalf("AppendStmt(nil) = %q", got)
	}
	if got := CmpOp(9).String(); got != "CmpOp(9)" {
		t.Fatalf("CmpOp(9).String() = %q", got)
	}
}
