package logic

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/lang"
)

// Shadow selects the Fourier–Motzkin shadow used when eliminating an
// integer variable whose bound coefficients are not unit. The real shadow
// over-approximates the integer projection; the dark shadow
// under-approximates it. When every combined bound pair has a unit
// coefficient the two coincide and the projection is exact.
type Shadow int

// Shadow modes.
const (
	Over  Shadow = iota // real shadow: ∃x.φ ⊆ result
	Under               // dark shadow: result ⊆ ∃x.φ
)

// Cube is a conjunction of ≤-atoms (equalities are split before cube
// processing).
type Cube []Atom

// Formula returns the cube as a conjunction, its atoms gathered on the
// stack.
func (c Cube) Formula() Formula {
	var kidBuf [nodeScratch]Formula
	fs := kidBuf[:0]
	for _, a := range c {
		fs = append(fs, LE(a.L))
	}
	return junction(tagAnd, fs)
}

// ID returns the identity of c's atom set: the id of the conjunction of
// its atoms ordered by id, so two cubes that hold the same atoms in any
// order share it. An atom the kernel took over from a formula unchanged
// still carries its id; only the others are looked up. When the cube is
// known already it allocates nothing.
func (c Cube) ID() ID {
	var idBuf [2 * nodeScratch]ID
	var atBuf [2 * nodeScratch]int
	for {
		ids, at := idBuf[:0], atBuf[:0]
		for i, a := range c {
			id := a.id
			if !live(id) {
				id = idOf(internAtom(a.L, a.Eq))
			}
			ids, at = append(ids, id), append(at, i)
		}
		// Insertion sort: cubes are small.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
				at[j], at[j-1] = at[j-1], at[j]
			}
		}
		h := hashNode(tagAnd, ids)
		if f := internTab[h>>nodeShardShift].lookup(h, tagAnd, ids); f != nil {
			return idOf(f)
		}
		// A new atom set: its node holds the atoms' nodes.
		var kidBuf [2 * nodeScratch]Formula
		kids := kidBuf[:0]
		for _, i := range at {
			kids = append(kids, internAtom(c[i].L, c[i].Eq))
		}
		if f := intern(tagAnd, ids, kids, Lin{}); f != nil {
			return idOf(f)
		}
	}
}

// MaxCubes caps DNF expansion; beyond it Exists falls back to the trivial
// sound answer for the requested shadow.
const MaxCubes = 512

// maxCombinations caps the lower×upper bound pairing during one
// Fourier–Motzkin variable elimination.
const maxCombinations = 4096

// EachCube calls yield with the cubes of f's DNF in expansion order (depth
// first, conjuncts left to right, disjuncts in turn) until yield returns
// false, each cube simplified: terms normalized, equalities split in two,
// trivially-true and repeated atoms dropped, contradictory cubes skipped.
// The cubes are counted first: when there are more than max, EachCube
// yields nothing and returns false. A yielded cube lives in pooled memory
// reused once yield returns; Formula and LinID copy what a caller keeps.
func EachCube(f Formula, max int, yield func(Cube) bool) bool {
	n, ok := countCubes(f, max)
	if ok && n > 0 {
		s := GetScratch()
		defer s.Release()
		s.walk(f, yield)
	}
	return ok
}

// countCubes counts the cubes of f's DNF; false when a disjunction's
// running total, or a conjunction's non-zero running product, passes max.
// A conjunct after one with no cubes is still counted and can still fail.
func countCubes(f Formula, max int) (int, bool) {
	switch f := f.(type) {
	case Bool, Atom:
		if f == False {
			return 0, true
		}
		return 1, true
	case Or:
		n := 0
		for _, g := range f.Fs {
			c, ok := countCubes(g, max)
			if n += c; !ok || n > max {
				return 0, false
			}
		}
		return n, true
	case And:
		n := 1
		for _, g := range f.Fs {
			c, ok := countCubes(g, max)
			if n *= c; !ok || n > max && n > 0 {
				return 0, false
			}
		}
		return n, true
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// Scratch is the cube kernel's working memory: cubes, and an arena for
// the terms their atoms point into, all dropped together by Release.
type Scratch struct {
	atoms []Atom
	vars  []lang.Var // the term arena: vars and coefs grow in step
	coefs []int64
	names []lang.Var // Vars' lists
	vcoef []int64    // eliminate's coefficients of v
	// The DNF walk's raw cube, goal lists and entered disjunctions.
	raw     []Atom
	goals   []goal
	choices []choice
}

// goal is a formula the walk has still to conjoin, in a list linked by
// index.
type goal struct {
	f    Formula
	next int // -1 ends the list
}

// choice is an entered disjunction: the disjunct to try next, the goal
// list after it, and the fills of raw, goals and the arena on entry.
type choice struct {
	fs                            []Formula
	next, rest, raw, goals, terms int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool; what s returned must not be used after.
func (s *Scratch) Release() {
	*s = Scratch{s.atoms[:0], s.vars[:0], s.coefs[:0], s.names[:0], s.vcoef, s.raw[:0], s.goals[:0], s.choices[:0]}
	scratchPool.Put(s)
}

// term is l.Scale(k) in the arena.
func (s *Scratch) term(l Lin, k int64) Lin {
	from := len(s.vars)
	s.vars = append(s.vars, l.Vars...)
	for _, c := range l.Coefs {
		s.coefs = append(s.coefs, c*k)
	}
	return Lin{K: l.K * k, Vars: s.vars[from:], Coefs: s.coefs[from:]}
}

// combine is x.Scale(a).Add(y.Scale(b)) without v's entry, merged into
// the arena in one pass.
func (s *Scratch) combine(x Lin, a int64, y Lin, b int64, v lang.Var) Lin {
	from := len(s.vars)
	i, j := 0, 0
	for i < len(x.Vars) || j < len(y.Vars) {
		var u lang.Var
		var c int64
		switch {
		case j == len(y.Vars) || i < len(x.Vars) && x.Vars[i] < y.Vars[j]:
			u, c = x.Vars[i], x.Coefs[i]*a
			i++
		case i == len(x.Vars) || y.Vars[j] < x.Vars[i]:
			u, c = y.Vars[j], y.Coefs[j]*b
			j++
		default:
			u, c = x.Vars[i], x.Coefs[i]*a+y.Coefs[j]*b
			i, j = i+1, j+1
			if c == 0 {
				continue
			}
		}
		if u != v {
			s.vars, s.coefs = append(s.vars, u), append(s.coefs, c)
		}
	}
	return Lin{K: x.K*a + y.K*b, Vars: s.vars[from:], Coefs: s.coefs[from:]}
}

// simplify filters the cube s.atoms[from:] in place: terms normalized,
// trivially-true atoms dropped, of equal terms the first kept; false when
// constant folding contradicts the cube. An atom that stays as it was
// keeps its id. Cubes are small (at most 32 atoms on the Table-1 checks),
// so a scan finds repeats.
func (s *Scratch) simplify(from int) (Cube, bool) {
	c, n := s.atoms[from:], 0
next:
	for _, a := range c {
		if a.L.coefGCD() > 1 {
			a = Atom{L: s.term(a.L, 1).divideGCD()}
		}
		if a.L.IsConst() {
			if a.L.K > 0 {
				s.atoms = s.atoms[:from]
				return nil, false
			}
			continue
		}
		for _, k := range c[:n] {
			if k.L.Equal(a.L) {
				continue next
			}
		}
		c[n] = a
		n++
	}
	s.atoms = s.atoms[:from+n]
	return s.atoms[from:], true
}

func (s *Scratch) push(f Formula, next int) int {
	s.goals = append(s.goals, goal{f, next})
	return len(s.goals) - 1
}

// walk yields the cubes of f in EachCube's order: it conjoins goals onto
// the raw cube until none is left (a cube), one is false or one is an Or,
// then goes on with the next disjunct of the innermost Or with one left.
func (s *Scratch) walk(f Formula, yield func(Cube) bool) {
	cur := s.push(f, -1)
	for {
		ok := true
		for ok && cur >= 0 {
			g := s.goals[cur]
			switch cur = g.next; g := g.f.(type) {
			case Bool:
				ok = bool(g)
			case Atom:
				if g.Eq {
					s.raw = append(s.raw, Atom{L: g.L}, Atom{L: s.term(g.L, -1)})
				} else {
					s.raw = append(s.raw, g)
				}
			case And:
				for i := len(g.Fs) - 1; i >= 0; i-- {
					cur = s.push(g.Fs[i], cur)
				}
			case Or:
				s.choices = append(s.choices, choice{g.Fs, 0, cur, len(s.raw), len(s.goals), len(s.vars)})
				ok = false
			}
		}
		if ok {
			s.atoms = append(s.atoms[:0], s.raw...)
			if c, ok := s.simplify(0); ok && !yield(c) {
				return
			}
		}
		for len(s.choices) > 0 && s.choices[len(s.choices)-1].next == len(s.choices[len(s.choices)-1].fs) {
			s.choices = s.choices[:len(s.choices)-1]
		}
		if len(s.choices) == 0 {
			return
		}
		c := &s.choices[len(s.choices)-1]
		s.raw, s.goals, s.vars, s.coefs = s.raw[:c.raw], s.goals[:c.goals], s.vars[:c.terms], s.coefs[:c.terms]
		cur = s.push(c.fs[c.next], c.rest)
		c.next++
	}
}

// Vars returns the variables of c, sorted and distinct, in s.
func (s *Scratch) Vars(c Cube) []lang.Var {
	from := len(s.names)
	for _, a := range c {
		s.names = append(s.names, a.L.Vars...)
	}
	slices.Sort(s.names[from:])
	vs := slices.Compact(s.names[from:])
	s.names = s.names[:from+len(vs)]
	return vs
}

// Project eliminates the variables of elim, sorted and distinct, from the
// cube in order by Fourier–Motzkin elimination with the given shadow; the
// result lives in s. exact reports whether it is the precise integer
// projection; sat=false means constant folding found it contradictory.
func (s *Scratch) Project(c Cube, elim []lang.Var, mode Shadow) (out Cube, exact, sat bool) {
	from := len(s.atoms)
	s.atoms = append(s.atoms, c...)
	if out, sat = s.simplify(from); !sat {
		return nil, true, false
	}
	exact = true
	for _, v := range elim {
		var ex bool
		out, ex, sat = s.eliminate(out, v, mode)
		if exact = exact && ex; !sat {
			return nil, exact, false
		}
	}
	return out, exact, true
}

// Entails reports whether the cube c implies the ≤-atom a: whether
// c ∧ ¬a, with ¬(L ≤ 0) the integer negation 1 − L ≤ 0, is refuted by
// real-shadow elimination of every variable. True is a proof over the
// integers; false means none was found. No formula is built, and s is
// left as it was found.
func (s *Scratch) Entails(c Cube, a Atom) bool {
	atoms, terms, names := len(s.atoms), len(s.vars), len(s.names)
	s.atoms = append(append(s.atoms, c...), Atom{L: s.term(a.L, -1).AddConst(1)})
	q := s.atoms[atoms:]
	_, _, sat := s.Project(q, s.Vars(q), Over)
	s.atoms, s.vars, s.coefs, s.names = s.atoms[:atoms], s.vars[:terms], s.coefs[:terms], s.names[:names]
	return !sat
}

// EachStepCube calls yield with the cubes of from ∧ pre(stmt, to), built
// in s, until yield returns false: the cubes EachCube yields on
// Conj(from, Pre(stmt, to, Over)), as sets of atoms, without building
// that formula. It decides only where that holds for certain: from and to
// hold no disjunction (an assumed condition may), there are at most max
// cubes, and the formula's Size is at most maxSize. Otherwise, or for a
// call, it yields nothing and returns false. s must be fresh from
// GetScratch.
func (s *Scratch) EachStepCube(stmt lang.Stmt, from, to Formula, max, maxSize int, yield func(Cube) bool) bool {
	if !s.conjoin(from, nil) {
		return false
	}
	mark := len(s.raw)
	if !s.conjoin(to, nil) {
		return false
	}
	size := 1 + Size(from) + Size(to)
	var cond Formula = True
	switch st := stmt.(type) {
	case lang.Skip:
	case lang.Assign:
		r := FromInt(st.Rhs)
		for i := mark; i < len(s.raw); i++ {
			if slices.Contains(s.raw[i].L.Vars, st.Lhs) {
				s.raw[i] = Atom{L: s.subst(s.raw[i].L, st.Lhs, r)}
			}
		}
	case lang.Havoc:
		elim := [1]lang.Var{st.V}
		proj, _, sat := s.Project(s.raw[mark:], elim[:], Over)
		if !sat {
			return true
		}
		s.raw = append(s.raw[:mark], proj...)
		size += 1 + len(proj)
	case lang.Assume:
		cond = FromBool(st.Cond)
		size += Size(cond)
	default:
		return false
	}
	if n, ok := countCubes(cond, max); !ok || size > maxSize {
		return false
	} else if n == 0 {
		return true
	}
	if cond != True {
		s.walk(cond, yield)
		return true
	}
	s.atoms = append(s.atoms[:0], s.raw...)
	if c, ok := s.simplify(0); ok {
		yield(c)
	}
	return true
}

// EachMeetCube calls yield with the cubes of path ∧ f[sub], built in s,
// until yield returns false: the cubes EachCube yields on Conj(path,
// SubstMap(f, sub)), as sets of atoms, without building that formula. It
// decides only where that holds for certain: f holds no disjunction, path
// has at most max cubes, and the formula's Size is at most maxSize.
// Otherwise it yields nothing and returns false. s must be fresh from
// GetScratch.
func (s *Scratch) EachMeetCube(path, f Formula, sub map[lang.Var]Lin, max, maxSize int, yield func(Cube) bool) bool {
	// Substitution folds an atom into an atom or a constant, and Conj
	// flattens, so the formula is no larger than this.
	if 1+Size(path)+Size(f) > maxSize || !s.conjoin(f, sub) {
		return false
	}
	if n, ok := countCubes(path, max); !ok {
		return false
	} else if n > 0 {
		s.walk(path, yield)
	}
	return true
}

// conjoin appends the atoms of f, with every variable sub binds replaced
// by its term, to the raw cube, an equality as the two inequalities walk
// makes of it; false when f holds a disjunction. A false constant is left
// to simplify: an atom 1 ≤ 0 stands for it.
func (s *Scratch) conjoin(f Formula, sub map[lang.Var]Lin) bool {
	switch g := f.(type) {
	case Bool:
		if !g {
			s.raw = append(s.raw, Atom{L: LinConst(1)})
		}
	case Atom:
		l := g.L
		if sub != nil {
			l = s.substMap(l, sub)
			g = Atom{L: l, Eq: g.Eq}
		}
		if g.Eq {
			s.raw = append(s.raw, Atom{L: l}, Atom{L: s.term(l, -1)})
		} else {
			s.raw = append(s.raw, g)
		}
	case And:
		for _, k := range g.Fs {
			if !s.conjoin(k, sub) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// substMap is l with every variable sub binds replaced by its term, all
// at once, in the arena: the term SubstMap makes of l, built as it builds
// it, one partial sum after another.
func (s *Scratch) substMap(l Lin, sub map[lang.Var]Lin) Lin {
	acc := LinConst(l.K)
	for i, v := range l.Vars {
		r, ok := sub[v]
		if !ok {
			r = Lin{Vars: l.Vars[i : i+1], Coefs: unitCoef[:]}
		}
		n := len(acc.Vars) + len(r.Vars)
		s.vars, s.coefs = slices.Grow(s.vars, n), slices.Grow(s.coefs, n)
		from := len(s.vars)
		acc = acc.addScaled(l.Coefs[i], r, s.vars[from:from], s.coefs[from:from])
		s.vars, s.coefs = s.vars[:from+len(acc.Vars)], s.coefs[:from+len(acc.Vars)]
	}
	return acc
}

// subst is l, which holds v, with v replaced by r, merged into the arena
// in one pass as Subst merges it.
func (s *Scratch) subst(l Lin, v lang.Var, r Lin) Lin {
	at := slices.Index(l.Vars, v)
	k, from := l.Coefs[at], len(s.vars)
	i, j := 0, 0
	for i < len(l.Vars) || j < len(r.Vars) {
		if i == at {
			i++
			continue
		}
		var u lang.Var
		var c int64
		switch {
		case j == len(r.Vars) || i < len(l.Vars) && l.Vars[i] < r.Vars[j]:
			u, c = l.Vars[i], l.Coefs[i]
			i++
		case i == len(l.Vars) || r.Vars[j] < l.Vars[i]:
			u, c = r.Vars[j], k*r.Coefs[j]
			j++
		default:
			u, c = l.Vars[i], l.Coefs[i]+k*r.Coefs[j]
			i, j = i+1, j+1
			if c == 0 {
				continue
			}
		}
		s.vars, s.coefs = append(s.vars, u), append(s.coefs, c)
	}
	return Lin{K: l.K + k*r.K, Vars: s.vars[from:], Coefs: s.coefs[from:]}
}

// eliminate removes v from the simplified cube c by Fourier–Motzkin
// combination. exact reports whether the projection is exact over the
// integers (every combined pair had a unit coefficient).
func (s *Scratch) eliminate(c Cube, v lang.Var, mode Shadow) (out Cube, exact, sat bool) {
	from := len(s.atoms)
	s.vcoef = s.vcoef[:0]
	lowers, uppers := 0, 0
	for _, a := range c {
		coef := a.L.Coef(v)
		s.vcoef = append(s.vcoef, coef)
		switch {
		case coef == 0:
			s.atoms = append(s.atoms, a)
		case coef > 0:
			uppers++
		default:
			lowers++
		}
	}
	if lowers == 0 || uppers == 0 {
		// v is unbounded on one side: any value works, projection exact.
		return s.atoms[from:], true, true
	}
	if lowers*uppers > maxCombinations {
		// Blow-up guard. For the over-approximating real shadow, dropping
		// the combined constraints is sound (a larger set); for the
		// under-approximating dark shadow the sound fallback is the empty
		// set, reported as a contradictory cube.
		return s.atoms[from:], false, mode == Over
	}
	exact = true
	for i, lo := range c {
		for j, up := range c {
			if s.vcoef[i] >= 0 || s.vcoef[j] <= 0 {
				continue
			}
			a, b := -s.vcoef[i], s.vcoef[j]
			// With r and r' the terms of lo and up without v: r ≤ a·v and
			// b·v ≤ -r', real shadow b·r + a·r' ≤ 0.
			terms := len(s.vars)
			comb := s.combine(lo.L, b, up.L, a, v)
			if a != 1 && b != 1 {
				exact = false
				if mode == Under {
					// dark shadow: guarantee an integer point between the
					// rational bounds.
					comb.K += (a - 1) * (b - 1)
				}
			}
			if comb = comb.divideGCD(); comb.IsConst() {
				if comb.K > 0 {
					return nil, exact, false
				}
				s.vars, s.coefs = s.vars[:terms], s.coefs[:terms]
				continue
			}
			s.atoms = append(s.atoms, Atom{L: comb})
		}
	}
	out, sat = s.simplify(from)
	return out, exact, sat
}

// Exists existentially quantifies the variables in elim out of f using the
// requested shadow. The exact result reports whether the answer is the
// precise integer projection; when DNF expansion overflows, the trivial
// sound answer for the mode is returned (true for Over, false for Under).
func Exists(f Formula, elim []lang.Var, mode Shadow) (Formula, bool) {
	set := make(map[lang.Var]bool, len(elim))
	for _, v := range elim {
		set[v] = true
	}
	if !Mentions(f, set) {
		return f, true
	}
	vars := slices.Clone(elim)
	slices.Sort(vars)
	vars = slices.Compact(vars)
	exact := true
	var out []Formula
	if !EachCube(f, MaxCubes, func(c Cube) bool {
		s := GetScratch()
		p, ex, sat := s.Project(c, vars, mode)
		if exact = exact && ex; sat {
			out = append(out, p.Formula())
		}
		s.Release()
		return true
	}) {
		return Bool(mode == Over), false
	}
	return Disj(out...), exact
}

// BoundsOn computes the integer interval for v implied by the cube under a
// model assigning all other variables. Atoms not mentioning v are ignored.
func BoundsOn(c Cube, v lang.Var, model map[lang.Var]int64) (lo, hi int64, hasLo, hasHi bool) {
	for _, a := range c {
		coef := a.L.Coef(v)
		if coef == 0 {
			continue
		}
		rest := a.L.Eval(model) - coef*model[v] // a.L without v, under model
		if coef > 0 {
			// coef·v ≤ -rest → v ≤ ⌊-rest/coef⌋.
			b := floorDiv(-rest, coef)
			if !hasHi || b < hi {
				hi = b
				hasHi = true
			}
		} else {
			// (-coef)·v ≥ rest → v ≥ ⌈rest/(-coef)⌉.
			b := ceilDiv(rest, -coef)
			if !hasLo || b > lo {
				lo = b
				hasLo = true
			}
		}
	}
	return lo, hi, hasLo, hasHi
}

// Pre computes the preimage of formula f across statement s: the set of
// states from which executing s can lead into f. The shadow mode governs
// havoc elimination. Call edges are the analyses' business, not Pre's.
func Pre(s lang.Stmt, f Formula, mode Shadow) Formula {
	switch s := s.(type) {
	case lang.Assign:
		return Subst(f, s.Lhs, FromInt(s.Rhs))
	case lang.Assume:
		return Conj(FromBool(s.Cond), f)
	case lang.Havoc:
		out, _ := Exists(f, []lang.Var{s.V}, mode)
		return out
	case lang.Skip:
		return f
	case lang.Call:
		panic("logic: Pre of a call statement; handle calls in the analysis")
	default:
		panic(fmt.Sprintf("logic: unknown Stmt %T", s))
	}
}
