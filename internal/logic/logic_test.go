package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lang"
)

func lin(k int64, terms ...any) Lin {
	l := LinConst(k)
	for i := 0; i < len(terms); i += 2 {
		l = l.Add(LinVar(lang.Var(terms[i+1].(string))).Scale(terms[i].(int64)))
	}
	return l
}

func TestLinCanonical(t *testing.T) {
	a := lin(3, int64(2), "x", int64(-1), "y")
	b := lin(0, int64(-1), "y").Add(lin(3, int64(2), "x"))
	if !a.Equal(b) {
		t.Fatalf("canonical forms differ: %v vs %v", a, b)
	}
	if got := a.Coef("x"); got != 2 {
		t.Fatalf("Coef(x) = %d, want 2", got)
	}
	if got := a.Coef("z"); got != 0 {
		t.Fatalf("Coef(z) = %d, want 0", got)
	}
}

func TestLinSubst(t *testing.T) {
	// (2x - y + 3)[x := y + 1] = 2y + 2 - y + 3 = y + 5.
	a := lin(3, int64(2), "x", int64(-1), "y")
	got := a.Subst("x", lin(1, int64(1), "y"))
	want := lin(5, int64(1), "y")
	if !got.Equal(want) {
		t.Fatalf("Subst = %v, want %v", got, want)
	}
}

func TestLinEval(t *testing.T) {
	a := lin(3, int64(2), "x", int64(-1), "y")
	m := map[lang.Var]int64{"x": 4, "y": 10}
	if got := a.Eval(m); got != 1 {
		t.Fatalf("Eval = %d, want 1", got)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{0, 5, 0, 0},
		{1, 7, 0, 1},
		{-1, 7, -1, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestFromBoolAndEval(t *testing.T) {
	// (x < y && !(x == 0)) || y >= 10
	b := lang.Or{
		X: lang.And{
			X: lang.CmpE(lang.V("x"), lang.Lt, lang.V("y")),
			Y: lang.NotE(lang.CmpE(lang.V("x"), lang.Eq, lang.C(0))),
		},
		Y: lang.CmpE(lang.V("y"), lang.Ge, lang.C(10)),
	}
	f := FromBool(b)
	cases := []struct {
		x, y int64
		want bool
	}{
		{1, 2, true},
		{0, 2, false},
		{0, 10, true},
		{5, 3, false},
		{-1, 0, true},
	}
	for _, c := range cases {
		m := map[lang.Var]int64{"x": c.x, "y": c.y}
		if got := Eval(f, m); got != c.want {
			t.Errorf("Eval(f, x=%d y=%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// randBool generates a random small boolean expression over x, y, z.
func randBool(r *rand.Rand, depth int) lang.BoolExpr {
	if depth <= 0 || r.Intn(3) == 0 {
		ops := []lang.CmpOp{lang.Lt, lang.Le, lang.Gt, lang.Ge, lang.Eq, lang.Ne}
		return lang.CmpE(randInt(r, 2), ops[r.Intn(len(ops))], randInt(r, 2))
	}
	switch r.Intn(3) {
	case 0:
		return lang.And{X: randBool(r, depth-1), Y: randBool(r, depth-1)}
	case 1:
		return lang.Or{X: randBool(r, depth-1), Y: randBool(r, depth-1)}
	default:
		return lang.Not{X: randBool(r, depth-1)}
	}
}

func randInt(r *rand.Rand, depth int) lang.IntExpr {
	if depth <= 0 || r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			return lang.C(int64(r.Intn(7) - 3))
		}
		vars := []string{"x", "y", "z"}
		return lang.V(vars[r.Intn(len(vars))])
	}
	switch r.Intn(3) {
	case 0:
		return lang.Add{X: randInt(r, depth-1), Y: randInt(r, depth-1)}
	case 1:
		return lang.Sub{X: randInt(r, depth-1), Y: randInt(r, depth-1)}
	default:
		return lang.Mul{K: int64(r.Intn(5) - 2), X: randInt(r, depth-1)}
	}
}

func evalIntExpr(e lang.IntExpr, m map[lang.Var]int64) int64 {
	switch e := e.(type) {
	case lang.Const:
		return e.Val
	case lang.Ref:
		return m[e.V]
	case lang.Add:
		return evalIntExpr(e.X, m) + evalIntExpr(e.Y, m)
	case lang.Sub:
		return evalIntExpr(e.X, m) - evalIntExpr(e.Y, m)
	case lang.Neg:
		return -evalIntExpr(e.X, m)
	case lang.Mul:
		return e.K * evalIntExpr(e.X, m)
	}
	panic("unreachable")
}

func evalBoolExpr(b lang.BoolExpr, m map[lang.Var]int64) bool {
	switch b := b.(type) {
	case lang.BoolConst:
		return b.Val
	case lang.Cmp:
		x, y := evalIntExpr(b.X, m), evalIntExpr(b.Y, m)
		switch b.Op {
		case lang.Lt:
			return x < y
		case lang.Le:
			return x <= y
		case lang.Gt:
			return x > y
		case lang.Ge:
			return x >= y
		case lang.Eq:
			return x == y
		case lang.Ne:
			return x != y
		}
	case lang.And:
		return evalBoolExpr(b.X, m) && evalBoolExpr(b.Y, m)
	case lang.Or:
		return evalBoolExpr(b.X, m) || evalBoolExpr(b.Y, m)
	case lang.Not:
		return !evalBoolExpr(b.X, m)
	}
	panic("unreachable")
}

// Property: FromBool preserves semantics on random expressions and models.
func TestFromBoolAgreesWithDirectEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := randBool(r, 3)
		f := FromBool(b)
		m := map[lang.Var]int64{
			"x": int64(r.Intn(11) - 5),
			"y": int64(r.Intn(11) - 5),
			"z": int64(r.Intn(11) - 5),
		}
		if Eval(f, m) != evalBoolExpr(b, m) {
			t.Fatalf("semantics diverge for %v under %v:\n  formula %v", b, m, f)
		}
	}
}

// Property: Not is a semantic complement.
func TestNotIsComplement(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		f := FromBool(randBool(r, 3))
		g := Not(f)
		m := map[lang.Var]int64{
			"x": int64(r.Intn(11) - 5),
			"y": int64(r.Intn(11) - 5),
			"z": int64(r.Intn(11) - 5),
		}
		if Eval(f, m) == Eval(g, m) {
			t.Fatalf("Not failed: f and ¬f agree under %v\n f=%v\n g=%v", m, f, g)
		}
	}
}

// Property: DNF preserves semantics.
func TestCubesPreserveSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		f := FromBool(randBool(r, 3))
		var fs []Formula
		if !EachCube(f, MaxCubes, func(c Cube) bool {
			fs = append(fs, c.Formula())
			return true
		}) {
			continue
		}
		g := Disj(fs...)
		m := map[lang.Var]int64{
			"x": int64(r.Intn(11) - 5),
			"y": int64(r.Intn(11) - 5),
			"z": int64(r.Intn(11) - 5),
		}
		if Eval(f, m) != Eval(g, m) {
			t.Fatalf("DNF changed semantics under %v:\n f=%v\n g=%v", m, f, g)
		}
	}
}

// Property (soundness of shadows): for random f and witness w with
// f(w) true, the over-projection of x must hold at w restricted to the
// kept variables; and any point satisfying the under-projection must have
// an integer completion satisfying f (checked by search over a window).
func TestExistsShadows(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		f := FromBool(randBool(r, 2))
		m := map[lang.Var]int64{
			"x": int64(r.Intn(9) - 4),
			"y": int64(r.Intn(9) - 4),
			"z": int64(r.Intn(9) - 4),
		}
		over, _ := Exists(f, []lang.Var{"x"}, Over)
		under, _ := Exists(f, []lang.Var{"x"}, Under)
		if Eval(f, m) && !Eval(over, m) {
			t.Fatalf("over-projection excluded a witness:\n f=%v\n over=%v\n m=%v", f, over, m)
		}
		if Eval(under, m) {
			found := false
			for x := int64(-60); x <= 60 && !found; x++ {
				m2 := map[lang.Var]int64{"x": x, "y": m["y"], "z": m["z"]}
				found = Eval(f, m2)
			}
			if !found {
				t.Fatalf("under-projection admitted a non-witness:\n f=%v\n under=%v\n m=%v", f, under, m)
			}
		}
	}
}

// Property: preimage of simple statements is exact for assign/assume.
func TestPreAssignAssume(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		f := FromBool(randBool(r, 2))
		m := map[lang.Var]int64{
			"x": int64(r.Intn(9) - 4),
			"y": int64(r.Intn(9) - 4),
			"z": int64(r.Intn(9) - 4),
		}
		e := randInt(r, 2)
		asg := lang.Assign{Lhs: "x", Rhs: e}
		pre := Pre(asg, f, Over)
		m2 := map[lang.Var]int64{"x": evalIntExpr(e, m), "y": m["y"], "z": m["z"]}
		if Eval(pre, m) != Eval(f, m2) {
			t.Fatalf("pre(assign) wrong:\n f=%v\n pre=%v\n m=%v", f, pre, m)
		}
		cond := randBool(r, 1)
		asm := lang.Assume{Cond: cond}
		preA := Pre(asm, f, Over)
		want := evalBoolExpr(cond, m) && Eval(f, m)
		if Eval(preA, m) != want {
			t.Fatalf("pre(assume) wrong:\n f=%v\n pre=%v\n m=%v", f, preA, m)
		}
	}
}

func TestBoundsOn(t *testing.T) {
	// 2x ≤ 7 ∧ x ≥ -1  →  x ∈ [-1, 3].
	c := Cube{
		{L: lin(-7, int64(2), "x")},
		{L: lin(-1, int64(-1), "x")},
	}
	lo, hi, hasLo, hasHi := BoundsOn(c, "x", map[lang.Var]int64{})
	if !hasLo || !hasHi || lo != -1 || hi != 3 {
		t.Fatalf("BoundsOn = [%d,%d] (%v,%v), want [-1,3]", lo, hi, hasLo, hasHi)
	}
}

func TestSubstMapSimultaneous(t *testing.T) {
	// (x - y ≤ 0)[x↦y, y↦x] must swap, not chain.
	f := LEq(LinVar("x"), LinVar("y"))
	g := SubstMap(f, map[lang.Var]Lin{"x": LinVar("y"), "y": LinVar("x")})
	m := map[lang.Var]int64{"x": 1, "y": 5}
	if Eval(g, m) {
		t.Fatalf("simultaneous substitution failed: %v should be false under %v", g, m)
	}
	m2 := map[lang.Var]int64{"x": 5, "y": 1}
	if !Eval(g, m2) {
		t.Fatalf("simultaneous substitution failed: %v should be true under %v", g, m2)
	}
}

func TestFreeVars(t *testing.T) {
	f := Conj(LEq(LinVar("b"), LinVar("a")), Disj(EQ(LinVar("c")), LEq(LinVar("a"), LinConst(0))))
	got := FreeVars(f)
	want := []lang.Var{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
}

func TestConjDisjFolding(t *testing.T) {
	if Conj(True, True) != True {
		t.Error("Conj(true,true) != true")
	}
	if Conj(True, False) != False {
		t.Error("Conj(true,false) != false")
	}
	if Disj(False, False) != False {
		t.Error("Disj(false,false) != false")
	}
	if Disj(False, True) != True {
		t.Error("Disj(false,true) != true")
	}
	a := LEq(LinVar("x"), LinConst(1))
	if got := Conj(a, True); got.String() != a.String() {
		t.Errorf("Conj(a,true) = %v, want %v", got, a)
	}
}

// quick-based property: Lin.Add is commutative and Scale distributes over
// evaluation.
func TestLinArithmeticProperties(t *testing.T) {
	type vec struct{ A, B, C, K int8 }
	err := quick.Check(func(p vec, x, y int8) bool {
		l := lin(int64(p.A), int64(p.B), "x", int64(p.C), "y")
		r := lin(int64(p.K), int64(p.A), "y")
		m := map[lang.Var]int64{"x": int64(x), "y": int64(y)}
		if l.Add(r).Eval(m) != l.Eval(m)+r.Eval(m) {
			return false
		}
		if !l.Add(r).Equal(r.Add(l)) {
			return false
		}
		if l.Scale(3).Eval(m) != 3*l.Eval(m) {
			return false
		}
		return l.Sub(r).Eval(m) == l.Eval(m)-r.Eval(m)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Add and Subst merge sorted variable lists; their results must be the
// canonical term a coefficient map gives (sorted, distinct, no zeros),
// cancellations and disjoint, overlapping and empty operands included.
func TestLinAddSubstAgainstCoefficientMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []lang.Var{"a", "b", "c", "d", "e"}
	random := func() Lin {
		m := map[lang.Var]int64{}
		for _, v := range names {
			if rng.Intn(2) == 0 {
				m[v] = int64(rng.Intn(5) - 2)
			}
		}
		return linFromMap(int64(rng.Intn(7)-3), m)
	}
	coefs := func(l Lin) map[lang.Var]int64 {
		m := map[lang.Var]int64{}
		for i, v := range l.Vars {
			m[v] = l.Coefs[i]
		}
		return m
	}
	for i := 0; i < 2000; i++ {
		l, r := random(), random()
		sum := coefs(l)
		for v, c := range coefs(r) {
			sum[v] += c
		}
		if got, want := l.Add(r), linFromMap(l.K+r.K, sum); !got.Equal(want) {
			t.Fatalf("(%v) + (%v) = %v, want %v", l, r, got, want)
		}
		v := names[rng.Intn(len(names))]
		sub := coefs(l)
		c := sub[v]
		delete(sub, v)
		for w, k := range coefs(r) {
			sub[w] += c * k
		}
		if got, want := l.Subst(v, r), linFromMap(l.K+c*r.K, sub); !got.Equal(want) {
			t.Fatalf("(%v)[%s := %v] = %v, want %v", l, v, r, got, want)
		}
	}
}

func TestMentionsAndSize(t *testing.T) {
	f := Conj(LEq(LinVar("a"), LinConst(1)), Disj(EQ(LinVar("b")), LEq(LinVar("c"), LinConst(0))))
	if !Mentions(f, map[lang.Var]bool{"b": true}) {
		t.Error("Mentions missed b")
	}
	if Mentions(f, map[lang.Var]bool{"z": true}) {
		t.Error("Mentions invented z")
	}
	if Size(f) < 4 {
		t.Errorf("Size = %d", Size(f))
	}
	if Size(True) != 1 {
		t.Errorf("Size(true) = %d", Size(True))
	}
}

func TestKeyDistinguishesStructure(t *testing.T) {
	a := LEq(LinVar("x"), LinConst(1))
	b := LEq(LinVar("x"), LinConst(2))
	if Key(a) == Key(b) {
		t.Error("distinct atoms share a key")
	}
	if Key(Conj(a, b)) == Key(Disj(a, b)) {
		t.Error("and/or share a key")
	}
	// Key is stable across construction order for deduplicated Conj.
	if Key(Conj(a, b, a)) != Key(Conj(a, b)) {
		t.Error("duplicate conjunct changed the key")
	}
}

func TestLtAndEqBuilders(t *testing.T) {
	m := map[lang.Var]int64{"x": 4, "y": 5}
	if !Eval(Lt(LinVar("x"), LinVar("y")), m) {
		t.Error("4 < 5 failed")
	}
	if Eval(Lt(LinVar("y"), LinVar("x")), m) {
		t.Error("5 < 4 held")
	}
	if !Eval(Eq(LinVar("x"), LinConst(4)), m) {
		t.Error("x = 4 failed")
	}
}
