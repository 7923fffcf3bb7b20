// Package lang defines the abstract syntax of the small imperative
// language analyzed by BOLT.
//
// The language is exactly the program model of §3.1 of the paper:
// procedures communicate through integer-valued global variables, edges of
// a control-flow graph are labelled with simple statements (assignments and
// assumes over linear integer expressions, plus havoc for nondeterministic
// input) or parameterless call statements.
package lang

import (
	"fmt"
	"strconv"
)

// Var is a program variable name. Globals and locals share this type; the
// distinction is recorded by the enclosing cfg.Program.
type Var string

// CmpOp is a comparison operator between integer expressions.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota // <
	Le              // <=
	Gt              // >
	Ge              // >=
	Eq              // ==
	Ne              // !=
)

// String returns the source syntax of the operator.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	}
	return "CmpOp(" + strconv.Itoa(int(op)) + ")"
}

// IntExpr is an integer-valued expression. Expressions are linear: the
// only multiplication form is by a constant.
type IntExpr interface {
	isIntExpr()
	String() string
}

// Const is an integer literal.
type Const struct{ Val int64 }

// Ref is a variable reference.
type Ref struct{ V Var }

// Add is x + y.
type Add struct{ X, Y IntExpr }

// Sub is x - y.
type Sub struct{ X, Y IntExpr }

// Neg is -x.
type Neg struct{ X IntExpr }

// Mul is k * x, multiplication by a constant (keeps expressions linear).
type Mul struct {
	K int64
	X IntExpr
}

func (Const) isIntExpr() {}
func (Ref) isIntExpr()   {}
func (Add) isIntExpr()   {}
func (Sub) isIntExpr()   {}
func (Neg) isIntExpr()   {}
func (Mul) isIntExpr()   {}

func (c Const) String() string { return intString(c) }
func (r Ref) String() string   { return string(r.V) }
func (a Add) String() string   { return intString(a) }
func (s Sub) String() string   { return intString(s) }
func (n Neg) String() string   { return intString(n) }
func (m Mul) String() string   { return intString(m) }

// BoolExpr is a boolean-valued expression (guards of assumes and
// conditionals).
type BoolExpr interface {
	isBoolExpr()
	String() string
}

// BoolConst is a boolean literal.
type BoolConst struct{ Val bool }

// Cmp is a comparison x op y between integer expressions.
type Cmp struct {
	Op   CmpOp
	X, Y IntExpr
}

// And is x && y.
type And struct{ X, Y BoolExpr }

// Or is x || y.
type Or struct{ X, Y BoolExpr }

// Not is !x.
type Not struct{ X BoolExpr }

func (BoolConst) isBoolExpr() {}
func (Cmp) isBoolExpr()       {}
func (And) isBoolExpr()       {}
func (Or) isBoolExpr()        {}
func (Not) isBoolExpr()       {}

func (b BoolConst) String() string { return strconv.FormatBool(b.Val) }
func (c Cmp) String() string       { return boolString(c) }
func (a And) String() string       { return boolString(a) }
func (o Or) String() string        { return boolString(o) }
func (n Not) String() string       { return boolString(n) }

// Stmt labels a control-flow edge. Per §3.1, statements are either simple
// (assignment, assume, havoc, skip) or calls.
type Stmt interface {
	isStmt()
	String() string
}

// Assign is `x = e`.
type Assign struct {
	Lhs Var
	Rhs IntExpr
}

// Assume is `assume(b)`: the edge may only be taken from states where b
// holds.
type Assume struct{ Cond BoolExpr }

// Havoc is `havoc x`: x receives an arbitrary integer value
// (nondeterministic input, the language's stand-in for environment data).
type Havoc struct{ V Var }

// Call is `call P`: invoke procedure P. Communication is via globals.
type Call struct{ Proc string }

// Skip is a no-op edge.
type Skip struct{}

func (Assign) isStmt() {}
func (Assume) isStmt() {}
func (Havoc) isStmt()  {}
func (Call) isStmt()   {}
func (Skip) isStmt()   {}

func (a Assign) String() string { return stmtString(a) }
func (a Assume) String() string { return stmtString(a) }
func (h Havoc) String() string  { return "havoc " + string(h.V) }
func (c Call) String() string   { return "call " + c.Proc }
func (Skip) String() string     { return "skip" }

// The one printer of the language. AppendStmt appends the source render
// of s to b: "x = e", "assume(b)", "havoc x", "call P", "skip", with
// binary operators parenthesised ("(x + 1)", "(b1 && b2)"), negation as
// "-e" and "!(b)", a scaled term as "k*e". Every String method of the
// package and every render of a program (cfg.Program.String, the
// manifest of internal/incr) goes through it; a missing operand renders
// as fmt renders a nil operand, "%!s(<nil>)".

// render sizes the stack buffer of a String method: a statement of the
// drivers renders in well under it, a longer one grows onto the heap.
const render = 64

func intString(e IntExpr) string {
	var buf [render]byte
	return string(appendInt(buf[:0], e))
}

func boolString(e BoolExpr) string {
	var buf [render]byte
	return string(appendBool(buf[:0], e))
}

func stmtString(s Stmt) string {
	var buf [render]byte
	return string(AppendStmt(buf[:0], s))
}

const nilOperand = "%!s(<nil>)"

// AppendStmt appends the render of s to b.
func AppendStmt(b []byte, s Stmt) []byte {
	switch s := s.(type) {
	case Assign:
		b = append(b, s.Lhs...)
		return appendInt(append(b, " = "...), s.Rhs)
	case Assume:
		return append(appendBool(append(b, "assume("...), s.Cond), ')')
	case Havoc:
		return append(append(b, "havoc "...), s.V...)
	case Call:
		return append(append(b, "call "...), s.Proc...)
	case Skip:
		return append(b, "skip"...)
	}
	return append(b, nilOperand...)
}

func appendInt(b []byte, e IntExpr) []byte {
	switch e := e.(type) {
	case Const:
		return strconv.AppendInt(b, e.Val, 10)
	case Ref:
		return append(b, e.V...)
	case Add:
		return appendBinary(b, e.X, " + ", e.Y)
	case Sub:
		return appendBinary(b, e.X, " - ", e.Y)
	case Neg:
		return appendInt(append(b, '-'), e.X)
	case Mul:
		return appendInt(append(strconv.AppendInt(b, e.K, 10), '*'), e.X)
	}
	return append(b, nilOperand...)
}

func appendBinary(b []byte, x IntExpr, op string, y IntExpr) []byte {
	b = appendInt(append(b, '('), x)
	return append(appendInt(append(b, op...), y), ')')
}

func appendBool(b []byte, e BoolExpr) []byte {
	switch e := e.(type) {
	case BoolConst:
		return strconv.AppendBool(b, e.Val)
	case Cmp:
		b = append(appendInt(b, e.X), ' ')
		return appendInt(append(append(b, e.Op.String()...), ' '), e.Y)
	case And:
		return appendJunction(b, e.X, " && ", e.Y)
	case Or:
		return appendJunction(b, e.X, " || ", e.Y)
	case Not:
		return append(appendBool(append(b, "!("...), e.X), ')')
	}
	return append(b, nilOperand...)
}

func appendJunction(b []byte, x BoolExpr, op string, y BoolExpr) []byte {
	b = appendBool(append(b, '('), x)
	return append(appendBool(append(b, op...), y), ')')
}

// VarsOfInt appends the variables occurring in e to dst and returns it.
func VarsOfInt(e IntExpr, dst []Var) []Var {
	switch e := e.(type) {
	case Const:
	case Ref:
		dst = append(dst, e.V)
	case Add:
		dst = VarsOfInt(e.X, dst)
		dst = VarsOfInt(e.Y, dst)
	case Sub:
		dst = VarsOfInt(e.X, dst)
		dst = VarsOfInt(e.Y, dst)
	case Neg:
		dst = VarsOfInt(e.X, dst)
	case Mul:
		dst = VarsOfInt(e.X, dst)
	default:
		panic(fmt.Sprintf("lang: unknown IntExpr %T", e))
	}
	return dst
}

// VarsOfBool appends the variables occurring in b to dst and returns it.
func VarsOfBool(b BoolExpr, dst []Var) []Var {
	switch b := b.(type) {
	case BoolConst:
	case Cmp:
		dst = VarsOfInt(b.X, dst)
		dst = VarsOfInt(b.Y, dst)
	case And:
		dst = VarsOfBool(b.X, dst)
		dst = VarsOfBool(b.Y, dst)
	case Or:
		dst = VarsOfBool(b.X, dst)
		dst = VarsOfBool(b.Y, dst)
	case Not:
		dst = VarsOfBool(b.X, dst)
	default:
		panic(fmt.Sprintf("lang: unknown BoolExpr %T", b))
	}
	return dst
}

// VarsOfStmt appends the variables read or written by s to dst and returns
// it.
func VarsOfStmt(s Stmt, dst []Var) []Var {
	switch s := s.(type) {
	case Assign:
		dst = append(dst, s.Lhs)
		dst = VarsOfInt(s.Rhs, dst)
	case Assume:
		dst = VarsOfBool(s.Cond, dst)
	case Havoc:
		dst = append(dst, s.V)
	case Call, Skip:
	default:
		panic(fmt.Sprintf("lang: unknown Stmt %T", s))
	}
	return dst
}

// Convenience constructors, handy when building programs programmatically.

// C returns the constant expression v.
func C(v int64) IntExpr { return Const{Val: v} }

// V returns a reference to variable name.
func V(name string) IntExpr { return Ref{V: Var(name)} }

// CmpE builds a comparison.
func CmpE(x IntExpr, op CmpOp, y IntExpr) BoolExpr { return Cmp{Op: op, X: x, Y: y} }

// NotE builds the negation of b.
func NotE(b BoolExpr) BoolExpr { return Not{X: b} }

// FormatVars renders a variable list for diagnostics.
func FormatVars(vs []Var) string {
	return string(AppendVars(nil, vs))
}

// AppendVars appends vs to b, separated by ", ".
func AppendVars(b []byte, vs []Var) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v...)
	}
	return b
}
