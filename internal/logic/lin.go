// Package logic implements the formula layer used by all analyses:
// linear integer terms, quantifier-free formulas in negation normal form,
// substitution, disjunctive normal form, integer preimages of statements,
// and existential projection by Fourier–Motzkin elimination with real
// (over-approximate) and dark (under-approximate) shadows.
//
// In the paper this role is split between the program representation and
// the Z3 SMT solver; here it is a self-contained substrate that
// internal/smt builds its decision procedure on.
package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// Lin is a linear integer term  k + Σ coefs[i]·vars[i]  in canonical form:
// vars sorted and distinct, all coefficients non-zero.
type Lin struct {
	K     int64
	Vars  []lang.Var
	Coefs []int64
}

// LinConst returns the constant term k.
func LinConst(k int64) Lin { return Lin{K: k} }

// LinVar returns the term 1·v.
func LinVar(v lang.Var) Lin {
	return Lin{Vars: []lang.Var{v}, Coefs: []int64{1}}
}

// linFromMap builds a canonical Lin from a coefficient map.
func linFromMap(k int64, m map[lang.Var]int64) Lin {
	vars := make([]lang.Var, 0, len(m))
	for v, c := range m {
		if c != 0 {
			vars = append(vars, v)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	coefs := make([]int64, len(vars))
	for i, v := range vars {
		coefs[i] = m[v]
	}
	return Lin{K: k, Vars: vars, Coefs: coefs}
}

// IsConst reports whether l has no variables.
func (l Lin) IsConst() bool { return len(l.Vars) == 0 }

// Coef returns the coefficient of v in l (0 if absent).
func (l Lin) Coef(v lang.Var) int64 {
	i := sort.Search(len(l.Vars), func(i int) bool { return l.Vars[i] >= v })
	if i < len(l.Vars) && l.Vars[i] == v {
		return l.Coefs[i]
	}
	return 0
}

// Add returns l + r: a merge of the two sorted variable lists.
func (l Lin) Add(r Lin) Lin {
	if len(r.Vars) == 0 {
		return l.AddConst(r.K)
	}
	if len(l.Vars) == 0 {
		return r.AddConst(l.K)
	}
	return l.plus(1, r)
}

// Sub returns l - r.
func (l Lin) Sub(r Lin) Lin { return l.plus(-1, r) }

// plus is l + k·r, k non-zero, in memory of its own.
func (l Lin) plus(k int64, r Lin) Lin {
	n := len(l.Vars) + len(r.Vars)
	return l.addScaled(k, r, make([]lang.Var, 0, n), make([]int64, 0, n))
}

// addScaled returns l + k·r, k non-zero, appending its variables and
// coefficients to vs and cs (both empty): a merge of the two sorted
// variable lists.
func (l Lin) addScaled(k int64, r Lin, vs []lang.Var, cs []int64) Lin {
	i, j := 0, 0
	for i < len(l.Vars) || j < len(r.Vars) {
		var v lang.Var
		var c int64
		switch {
		case j == len(r.Vars) || i < len(l.Vars) && l.Vars[i] < r.Vars[j]:
			v, c = l.Vars[i], l.Coefs[i]
			i++
		case i == len(l.Vars) || r.Vars[j] < l.Vars[i]:
			v, c = r.Vars[j], k*r.Coefs[j]
			j++
		default:
			v, c = l.Vars[i], l.Coefs[i]+k*r.Coefs[j]
			i, j = i+1, j+1
			if c == 0 {
				continue
			}
		}
		vs, cs = append(vs, v), append(cs, c)
	}
	return Lin{K: l.K + k*r.K, Vars: vs, Coefs: cs}
}

// termScratch is the width up to which a constructor builds a term on its
// own stack on the way to the intern table, which copies it only when it
// is new; a wider term spills to the heap through append.
const termScratch = 16

// termBuf is room for one term of up to termScratch variables.
type termBuf struct {
	vs [termScratch]lang.Var
	cs [termScratch]int64
}

// sum is l + k·r, k non-zero, in b.
func (b *termBuf) sum(l Lin, k int64, r Lin) Lin {
	return l.addScaled(k, r, b.vs[:0], b.cs[:0])
}

// Scale returns k·l.
func (l Lin) Scale(k int64) Lin {
	if k == 0 {
		return Lin{}
	}
	return Lin{}.plus(k, l)
}

// AddConst returns l + k.
func (l Lin) AddConst(k int64) Lin {
	out := l
	out.K += k
	return out
}

// subst returns l with every occurrence of v replaced by r, in b.
func (l Lin) subst(v lang.Var, r Lin, b *[2]termBuf) Lin {
	i := sort.Search(len(l.Vars), func(i int) bool { return l.Vars[i] >= v })
	if i == len(l.Vars) || l.Vars[i] != v {
		return l
	}
	base := Lin{K: l.K, Vars: append(append(b[0].vs[:0], l.Vars[:i]...), l.Vars[i+1:]...),
		Coefs: append(append(b[0].cs[:0], l.Coefs[:i]...), l.Coefs[i+1:]...)}
	return b[1].sum(base, l.Coefs[i], r)
}

// Rename returns l with variables renamed by ren (identity for missing
// keys).
func (l Lin) Rename(ren map[lang.Var]lang.Var) Lin {
	m := make(map[lang.Var]int64, len(l.Vars))
	for i, v := range l.Vars {
		nv := v
		if r, ok := ren[v]; ok {
			nv = r
		}
		m[nv] += l.Coefs[i]
	}
	return linFromMap(l.K, m)
}

// Eval evaluates l under the model. Missing variables evaluate to 0.
func (l Lin) Eval(model map[lang.Var]int64) int64 {
	out := l.K
	for i, v := range l.Vars {
		out += l.Coefs[i] * model[v]
	}
	return out
}

// Equal reports structural equality of canonical terms.
func (l Lin) Equal(r Lin) bool {
	if l.K != r.K || len(l.Vars) != len(r.Vars) {
		return false
	}
	for i := range l.Vars {
		if l.Vars[i] != r.Vars[i] || l.Coefs[i] != r.Coefs[i] {
			return false
		}
	}
	return true
}

// divideGCD divides l by the gcd of its coefficients (which keeps atom
// keys canonical) in place, for a term whose coefficients the caller
// owns. For an atom l ≤ 0 with all variable coefficients divisible by g:
// k + g·t ≤ 0  ⇔  t ≤ ⌊-k/g⌋  ⇔  t - ⌊-k/g⌋ ≤ 0 over the integers.
func (l Lin) divideGCD() Lin {
	if g := l.coefGCD(); g > 1 {
		for i := range l.Coefs {
			l.Coefs[i] /= g
		}
		l.K = -floorDiv(-l.K, g)
	}
	return l
}

// coefGCD is the gcd of l's coefficients, 0 for a constant.
func (l Lin) coefGCD() (g int64) {
	for _, c := range l.Coefs {
		g = gcd64(g, abs64(c))
	}
	return g
}

// clone copies l into memory of its own.
func (l Lin) clone() Lin {
	return Lin{K: l.K, Vars: append([]lang.Var(nil), l.Vars...), Coefs: append([]int64(nil), l.Coefs...)}
}

func (l Lin) String() string {
	if len(l.Vars) == 0 {
		return fmt.Sprintf("%d", l.K)
	}
	var b strings.Builder
	first := true
	for i, v := range l.Vars {
		c := l.Coefs[i]
		switch {
		case first && c == 1:
			fmt.Fprintf(&b, "%s", v)
		case first && c == -1:
			fmt.Fprintf(&b, "-%s", v)
		case first:
			fmt.Fprintf(&b, "%d·%s", c, v)
		case c == 1:
			fmt.Fprintf(&b, " + %s", v)
		case c == -1:
			fmt.Fprintf(&b, " - %s", v)
		case c > 0:
			fmt.Fprintf(&b, " + %d·%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d·%s", -c, v)
		}
		first = false
	}
	if l.K > 0 {
		fmt.Fprintf(&b, " + %d", l.K)
	} else if l.K < 0 {
		fmt.Fprintf(&b, " - %d", -l.K)
	}
	return b.String()
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// FromInt converts a lang integer expression to a linear term. Expressions
// in the language are linear by construction.
func FromInt(e lang.IntExpr) Lin {
	switch e := e.(type) {
	case lang.Const:
		return LinConst(e.Val)
	case lang.Ref:
		return LinVar(e.V)
	case lang.Add:
		return FromInt(e.X).Add(FromInt(e.Y))
	case lang.Sub:
		return FromInt(e.X).Sub(FromInt(e.Y))
	case lang.Neg:
		return FromInt(e.X).Scale(-1)
	case lang.Mul:
		return FromInt(e.X).Scale(e.K)
	default:
		panic(fmt.Sprintf("logic: unknown IntExpr %T", e))
	}
}
