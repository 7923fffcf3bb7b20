package lang

import "fmt"

// Negate returns the operator op' such that x op' y ⇔ ¬(x op y).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Eq:
		return Ne
	case Ne:
		return Eq
	}
	panic(fmt.Sprintf("lang: invalid CmpOp %d", int(op)))
}

// Plus returns x + y.
func Plus(x, y IntExpr) IntExpr { return Add{X: x, Y: y} }

// Minus returns x - y.
func Minus(x, y IntExpr) IntExpr { return Sub{X: x, Y: y} }

// Times returns k * x.
func Times(k int64, x IntExpr) IntExpr { return Mul{K: k, X: x} }

// AndE builds the conjunction of bs (true when empty).
func AndE(bs ...BoolExpr) BoolExpr {
	if len(bs) == 0 {
		return BoolConst{Val: true}
	}
	out := bs[0]
	for _, b := range bs[1:] {
		out = And{X: out, Y: b}
	}
	return out
}

// OrE builds the disjunction of bs (false when empty).
func OrE(bs ...BoolExpr) BoolExpr {
	if len(bs) == 0 {
		return BoolConst{Val: false}
	}
	out := bs[0]
	for _, b := range bs[1:] {
		out = Or{X: out, Y: b}
	}
	return out
}
