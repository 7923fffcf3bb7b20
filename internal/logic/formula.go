package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// Formula is a quantifier-free formula over linear integer atoms, kept in
// negation normal form by construction: there is no negation node; Not is a
// function that pushes negations into atoms (which negate exactly over the
// integers).
type Formula interface {
	isFormula()
	String() string
}

// Bool is the constant formula true or false.
type Bool bool

// Atom is the inequality L ≤ 0, or the equality L = 0 when Eq is set.
// The unexported id is the hash-consed identity assigned by the package
// constructors (0 for literal-built atoms, which are interned lazily by
// KeyID).
type Atom struct {
	L  Lin
	Eq bool
	id ID
}

// And is the conjunction of Fs (true when empty).
type And struct {
	Fs []Formula
	id ID
}

// Or is the disjunction of Fs (false when empty).
type Or struct {
	Fs []Formula
	id ID
}

func (Bool) isFormula() {}
func (Atom) isFormula() {}
func (And) isFormula()  {}
func (Or) isFormula()   {}

func (b Bool) String() string {
	if bool(b) {
		return "true"
	}
	return "false"
}

func (a Atom) String() string {
	if a.Eq {
		return fmt.Sprintf("%s = 0", a.L)
	}
	return fmt.Sprintf("%s ≤ 0", a.L)
}

func (a And) String() string { return joinFormulas(a.Fs, " ∧ ", "true") }
func (o Or) String() string  { return joinFormulas(o.Fs, " ∨ ", "false") }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// True and False are the constant formulas.
const (
	True  = Bool(true)
	False = Bool(false)
)

// LE returns the atom l ≤ 0 with constant folding.
func LE(l Lin) Formula {
	l = l.normalizeLE()
	if l.IsConst() {
		return Bool(l.K <= 0)
	}
	return Atom{L: l, id: internAtom(l, false)}
}

// EQ returns the atom l = 0 with constant folding.
func EQ(l Lin) Formula {
	if l.IsConst() {
		return Bool(l.K == 0)
	}
	return Atom{L: l, Eq: true, id: internAtom(l, true)}
}

// LEq returns the formula x ≤ y.
func LEq(x, y Lin) Formula { return LE(x.Sub(y)) }

// Lt returns the formula x < y (over the integers: x - y + 1 ≤ 0).
func Lt(x, y Lin) Formula { return LE(x.Sub(y).AddConst(1)) }

// Eq returns the formula x = y.
func Eq(x, y Lin) Formula { return EQ(x.Sub(y)) }

// idSet is a set of interned ids sized for what formula construction
// meets: a handful of members, found by scanning a slice. Only a set that
// outgrows idSetLinear pays for a map.
type idSet struct {
	ids []ID        // members in insertion order
	big map[ID]bool // mirrors ids once len(ids) > idSetLinear
}

const idSetLinear = 24

// insert adds id and reports whether it was new.
func (s *idSet) insert(id ID) bool {
	if s.big != nil {
		if s.big[id] {
			return false
		}
		s.big[id] = true
	} else {
		for _, x := range s.ids {
			if x == id {
				return false
			}
		}
	}
	s.ids = append(s.ids, id)
	if s.big == nil && len(s.ids) > idSetLinear {
		s.big = make(map[ID]bool, 2*len(s.ids))
		for _, x := range s.ids {
			s.big[x] = true
		}
	}
	return true
}

// nodeBuilder accumulates the flattened, deduplicated children of a
// Conj/Disj. Dedup is by interned id; the string map only exists when
// some child overflowed the intern table (the node then stays uninterned
// and seen.ids no longer lines up with out).
type nodeBuilder struct {
	out     []Formula
	seen    idSet
	seenStr map[string]bool
	allIn   bool // every child has a non-zero id
}

func newNodeBuilder(n int) nodeBuilder {
	return nodeBuilder{
		out:   make([]Formula, 0, n),
		seen:  idSet{ids: make([]ID, 0, n)},
		allIn: true,
	}
}

func (b *nodeBuilder) add(g Formula) {
	if id := KeyID(g); id != 0 {
		if b.seen.insert(id) {
			b.out = append(b.out, g)
		}
		return
	}
	b.allIn = false
	if b.seenStr == nil {
		b.seenStr = map[string]bool{}
	}
	k := g.String()
	if !b.seenStr[k] {
		b.seenStr[k] = true
		b.out = append(b.out, g)
	}
}

// Conj returns the conjunction of fs, flattened, deduplicated and
// constant-folded.
func Conj(fs ...Formula) Formula {
	n := len(fs)
	for _, f := range fs {
		if a, ok := f.(And); ok {
			n += len(a.Fs) - 1
		}
	}
	b := newNodeBuilder(n)
	add := func(g Formula) bool {
		if c, ok := g.(Bool); ok {
			return bool(c) // false aborts
		}
		b.add(g)
		return true
	}
	for _, f := range fs {
		if a, ok := f.(And); ok {
			for _, g := range a.Fs {
				if !add(g) {
					return False
				}
			}
			continue
		}
		if !add(f) {
			return False
		}
	}
	if len(b.out) == 0 {
		return True
	}
	if len(b.out) == 1 {
		return b.out[0]
	}
	node := And{Fs: b.out}
	if b.allIn {
		node.id = internNode(tagAnd, b.seen.ids)
	}
	return node
}

// Disj returns the disjunction of fs, flattened, deduplicated and
// constant-folded.
func Disj(fs ...Formula) Formula {
	n := len(fs)
	for _, f := range fs {
		if o, ok := f.(Or); ok {
			n += len(o.Fs) - 1
		}
	}
	b := newNodeBuilder(n)
	add := func(g Formula) bool {
		if c, ok := g.(Bool); ok {
			return !bool(c) // true aborts
		}
		b.add(g)
		return true
	}
	for _, f := range fs {
		if o, ok := f.(Or); ok {
			for _, g := range o.Fs {
				if !add(g) {
					return True
				}
			}
			continue
		}
		if !add(f) {
			return True
		}
	}
	if len(b.out) == 0 {
		return False
	}
	if len(b.out) == 1 {
		return b.out[0]
	}
	node := Or{Fs: b.out}
	if b.allIn {
		node.id = internNode(tagOr, b.seen.ids)
	}
	return node
}

// Not returns the negation of f, pushed down to the atoms. Over the
// integers atoms negate exactly: ¬(L ≤ 0) = (-L+1 ≤ 0) and
// ¬(L = 0) = (L+1 ≤ 0) ∨ (-L+1 ≤ 0).
func Not(f Formula) Formula {
	switch f := f.(type) {
	case Bool:
		return Bool(!bool(f))
	case Atom:
		if f.Eq {
			return Disj(LE(f.L.AddConst(1)), LE(f.L.Scale(-1).AddConst(1)))
		}
		return LE(f.L.Scale(-1).AddConst(1))
	case And:
		neg := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			neg[i] = Not(g)
		}
		return Disj(neg...)
	case Or:
		neg := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			neg[i] = Not(g)
		}
		return Conj(neg...)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// FromBool converts a lang boolean expression to a Formula.
func FromBool(b lang.BoolExpr) Formula {
	switch b := b.(type) {
	case lang.BoolConst:
		return Bool(b.Val)
	case lang.Cmp:
		x, y := FromInt(b.X), FromInt(b.Y)
		switch b.Op {
		case lang.Lt:
			return Lt(x, y)
		case lang.Le:
			return LEq(x, y)
		case lang.Gt:
			return Lt(y, x)
		case lang.Ge:
			return LEq(y, x)
		case lang.Eq:
			return Eq(x, y)
		case lang.Ne:
			return Not(Eq(x, y))
		}
		panic(fmt.Sprintf("logic: invalid CmpOp %v", b.Op))
	case lang.And:
		return Conj(FromBool(b.X), FromBool(b.Y))
	case lang.Or:
		return Disj(FromBool(b.X), FromBool(b.Y))
	case lang.Not:
		return Not(FromBool(b.X))
	default:
		panic(fmt.Sprintf("logic: unknown BoolExpr %T", b))
	}
}

// Subst returns f with v replaced by the term r.
func Subst(f Formula, v lang.Var, r Lin) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Atom:
		l := f.L.Subst(v, r)
		if f.Eq {
			return EQ(l)
		}
		return LE(l)
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, v, r)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, v, r)
		}
		return Disj(out...)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// SubstMap applies all substitutions in sub simultaneously.
func SubstMap(f Formula, sub map[lang.Var]Lin) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Atom:
		l := LinConst(f.L.K)
		for i, v := range f.L.Vars {
			if r, ok := sub[v]; ok {
				l = l.Add(r.Scale(f.L.Coefs[i]))
			} else {
				l = l.Add(LinVar(v).Scale(f.L.Coefs[i]))
			}
		}
		if f.Eq {
			return EQ(l)
		}
		return LE(l)
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = SubstMap(g, sub)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = SubstMap(g, sub)
		}
		return Disj(out...)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// Rename returns f with variables renamed by ren.
func Rename(f Formula, ren map[lang.Var]lang.Var) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Atom:
		out := f
		out.L = f.L.Rename(ren)
		out.id = internAtom(out.L, out.Eq)
		return out
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Rename(g, ren)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Rename(g, ren)
		}
		return Disj(out...)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// Eval evaluates f under a model (missing variables read as 0).
func Eval(f Formula, model map[lang.Var]int64) bool {
	switch f := f.(type) {
	case Bool:
		return bool(f)
	case Atom:
		v := f.L.Eval(model)
		if f.Eq {
			return v == 0
		}
		return v <= 0
	case And:
		for _, g := range f.Fs {
			if !Eval(g, model) {
				return false
			}
		}
		return true
	case Or:
		for _, g := range f.Fs {
			if Eval(g, model) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// FreeVars returns the sorted set of variables occurring in f.
func FreeVars(f Formula) []lang.Var {
	set := map[lang.Var]bool{}
	collectVars(f, set)
	out := make([]lang.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectVars(f Formula, set map[lang.Var]bool) {
	switch f := f.(type) {
	case Bool:
	case Atom:
		for _, v := range f.L.Vars {
			set[v] = true
		}
	case And:
		for _, g := range f.Fs {
			collectVars(g, set)
		}
	case Or:
		for _, g := range f.Fs {
			collectVars(g, set)
		}
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// Mentions reports whether f mentions any variable in vs.
func Mentions(f Formula, vs map[lang.Var]bool) bool {
	switch f := f.(type) {
	case Bool:
		return false
	case Atom:
		for _, v := range f.L.Vars {
			if vs[v] {
				return true
			}
		}
		return false
	case And:
		for _, g := range f.Fs {
			if Mentions(g, vs) {
				return true
			}
		}
		return false
	case Or:
		for _, g := range f.Fs {
			if Mentions(g, vs) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// Size returns the number of nodes in f, used for budget accounting.
func Size(f Formula) int {
	switch f := f.(type) {
	case Bool, Atom:
		return 1
	case And:
		n := 1
		for _, g := range f.Fs {
			n += Size(g)
		}
		return n
	case Or:
		n := 1
		for _, g := range f.Fs {
			n += Size(g)
		}
		return n
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}
