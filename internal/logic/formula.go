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
// KeyID); lid is the counter half of the id of L, by which the intern
// table finds the atom (see termID).
type Atom struct {
	L   Lin
	Eq  bool
	lid uint32
	id  ID
}

// termID is the id of an interned atom's term. The term was interned in
// the atom's own generation, so the generation half is the atom's. The
// struct keeps only the counter half: at 80 bytes instead of 72, every
// type switch that copies an atom out of a Formula took a block move.
func (a Atom) termID() ID { return a.id&^(1<<32-1) | ID(a.lid) }

// And is the conjunction of Fs (true when empty). Fs of a node that came
// from a constructor is shared with every other holder of the same
// structure: read it, never write or append to it in place.
type And struct {
	Fs []Formula
	id ID
}

// Or is the disjunction of Fs (false when empty); Fs is shared as And's.
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

// LE returns the atom l ≤ 0 with constant folding, l divided by the gcd
// of its coefficients.
func LE(l Lin) Formula {
	if l.IsConst() {
		return Bool(l.K <= 0)
	}
	if l.coefGCD() > 1 {
		var cs [termScratch]int64
		l.Coefs = append(cs[:0], l.Coefs...)
		l = l.divideGCD()
	}
	return internAtom(l, false)
}

// EQ returns the atom l = 0 with constant folding.
func EQ(l Lin) Formula {
	if l.IsConst() {
		return Bool(l.K == 0)
	}
	return internAtom(l, true)
}

// LEq returns the formula x ≤ y.
func LEq(x, y Lin) Formula {
	var b termBuf
	return LE(b.sum(x, -1, y))
}

// Lt returns the formula x < y (over the integers: x - y + 1 ≤ 0).
func Lt(x, y Lin) Formula {
	var b termBuf
	return LE(b.sum(x, -1, y).AddConst(1))
}

// Eq returns the formula x = y.
func Eq(x, y Lin) Formula {
	var b termBuf
	return EQ(b.sum(x, -1, y))
}

// idSet is a set of interned ids sized for what formula construction
// meets: a handful of members, found by scanning a slice. Only a set that
// outgrows idSetLinear pays for a map. It is passed and returned by value
// so that a set started on an array of the caller's stack stays there.
type idSet struct {
	ids []ID        // members in insertion order
	big map[ID]bool // mirrors ids once len(ids) > idSetLinear
}

const idSetLinear = 24

// insert returns the set with id in it and reports whether id was new.
func (s idSet) insert(id ID) (idSet, bool) {
	if s.big != nil {
		if s.big[id] {
			return s, false
		}
		s.big[id] = true
	} else {
		for _, x := range s.ids {
			if x == id {
				return s, false
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
	return s, true
}

// nodeScratch is the width up to which a Conj/Disj gathers its children
// and their ids in arrays on the constructor's stack; wider nodes spill
// to the heap through append.
const nodeScratch = 16

// Conj returns the conjunction of fs, flattened, deduplicated and
// constant-folded.
func Conj(fs ...Formula) Formula { return junction(tagAnd, fs) }

// Disj returns the disjunction of fs, flattened, deduplicated and
// constant-folded.
func Disj(fs ...Formula) Formula { return junction(tagOr, fs) }

// junction builds the And (tagAnd) or Or (tagOr) of fs: children of the
// same kind are flattened one level (they are flat themselves), the
// neutral constant is dropped, the absorbing one decides the result, and
// duplicates keep their first occurrence. What is left is looked up in
// the intern table; when the node exists already nothing is allocated.
// When the table is dropped while the children are interned, it starts
// over.
func junction(tag byte, fs []Formula) Formula {
	var kidBuf [nodeScratch]Formula
	var idBuf [nodeScratch]ID
	absorbing := Bool(tag == tagOr)
	for {
		kids := kidBuf[:0]            // the children kept so far
		seen := idSet{ids: idBuf[:0]} // their ids, in step with kids
		add := func(g Formula) bool {
			if c, ok := g.(Bool); ok {
				return c != absorbing
			}
			g = canonical(g)
			var fresh bool
			if seen, fresh = seen.insert(idOf(g)); fresh {
				kids = append(kids, g)
			}
			return true
		}
		for _, f := range fs {
			ftag, inner := kidsOf(f)
			if ftag != tag { // not a node of the kind being built: one child
				if !add(f) {
					return absorbing
				}
				continue
			}
			for _, g := range inner {
				if !add(g) {
					return absorbing
				}
			}
		}
		switch len(kids) {
		case 0:
			return !absorbing
		case 1:
			return kids[0]
		}
		if f := intern(tag, seen.ids, kids, Lin{}); f != nil {
			return f
		}
	}
}

// mapKids is the junction with the given tag of fn applied to each of fs,
// gathered on the stack.
func mapKids(tag byte, fs []Formula, fn func(Formula) Formula) Formula {
	var kidBuf [nodeScratch]Formula
	out := kidBuf[:0]
	for _, g := range fs {
		out = append(out, fn(g))
	}
	return junction(tag, out)
}

// Not returns the negation of f, pushed down to the atoms. Over the
// integers atoms negate exactly: ¬(L ≤ 0) = (-L+1 ≤ 0) and
// ¬(L = 0) = (L+1 ≤ 0) ∨ (-L+1 ≤ 0).
func Not(f Formula) Formula {
	switch f := f.(type) {
	case Bool:
		return Bool(!bool(f))
	case Atom:
		var b termBuf
		neg := b.sum(LinConst(1), -1, f.L) // 1 - L
		if f.Eq {
			return Disj(LE(f.L.AddConst(1)), LE(neg))
		}
		return LE(neg)
	case And:
		return mapKids(tagOr, f.Fs, Not)
	case Or:
		return mapKids(tagAnd, f.Fs, Not)
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
		var b [2]termBuf
		l := f.L.subst(v, r, &b)
		if f.Eq {
			return EQ(l)
		}
		return LE(l)
	case And:
		return mapKids(tagAnd, f.Fs, func(g Formula) Formula { return Subst(g, v, r) })
	case Or:
		return mapKids(tagOr, f.Fs, func(g Formula) Formula { return Subst(g, v, r) })
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// unitCoef is the coefficient list of a term 1·v; read only.
var unitCoef = [1]int64{1}

// SubstMap applies all substitutions in sub simultaneously.
func SubstMap(f Formula, sub map[lang.Var]Lin) Formula { return substMap(f, sub, nil, "", Lin{}) }

// SubstBound is SubstMap under sub with v bound to r instead, without a
// copy of sub.
func SubstBound(f Formula, sub map[lang.Var]Lin, v lang.Var, r Lin) Formula {
	return substMap(f, sub, nil, v, r)
}

// SubstOver is SubstMap under sub with the variables of over bound as over
// binds them instead, without a copy of sub.
func SubstOver(f Formula, sub, over map[lang.Var]Lin) Formula {
	return substMap(f, sub, over, "", Lin{})
}

// substMap is SubstMap with the bindings of over, and u bound to ur when u
// is not empty, in place of sub's.
func substMap(f Formula, sub, over map[lang.Var]Lin, u lang.Var, ur Lin) Formula {
	switch f := f.(type) {
	case Bool:
		return f
	case Atom:
		// The partial sums alternate between two buffers: each is built
		// from the one before it.
		var b [2]termBuf
		l := LinConst(f.L.K)
		for i, v := range f.L.Vars {
			r, ok := ur, u != "" && v == u
			if !ok && over != nil {
				r, ok = over[v]
			}
			if !ok {
				r, ok = sub[v]
			}
			if !ok {
				r = Lin{Vars: f.L.Vars[i : i+1], Coefs: unitCoef[:]}
			}
			l = b[i%2].sum(l, f.L.Coefs[i], r)
		}
		if f.Eq {
			return EQ(l)
		}
		return LE(l)
	case And:
		return mapKids(tagAnd, f.Fs, func(g Formula) Formula { return substMap(g, sub, over, u, ur) })
	case Or:
		return mapKids(tagOr, f.Fs, func(g Formula) Formula { return substMap(g, sub, over, u, ur) })
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
		return internAtom(f.L.Rename(ren), f.Eq)
	case And:
		return mapKids(tagAnd, f.Fs, func(g Formula) Formula { return Rename(g, ren) })
	case Or:
		return mapKids(tagOr, f.Fs, func(g Formula) Formula { return Rename(g, ren) })
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
