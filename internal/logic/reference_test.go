package logic

// The reference cube kernel: Cubes materialises the whole DNF and
// ProjectCube allocates every combined term. It is the executable
// specification FuzzCubeKernelAgainstReference and
// TestCubeKernelAgainstReference hold EachCube and Scratch.Project to, as
// satDPLLNaive is for the CDCL solver; keep it unchanged.

import (
	"fmt"

	"repro/internal/lang"
)

// Cubes converts f to disjunctive normal form as a list of cubes. The
// second result is false if the expansion exceeded max cubes (the returned
// prefix is then meaningless and must not be used).
func Cubes(f Formula, max int) ([]Cube, bool) {
	cubes, ok := cubesOf(f, max)
	if !ok {
		return nil, false
	}
	out := cubes[:0]
	for _, c := range cubes {
		// cubesOf built every cube afresh, so each is filtered in place.
		if c, ok := simplifyCube(c[:0], c); ok {
			out = append(out, c)
		}
	}
	return out, true
}

func cubesOf(f Formula, max int) ([]Cube, bool) {
	switch f := f.(type) {
	case Bool:
		if bool(f) {
			return []Cube{{}}, true
		}
		return nil, true
	case Atom:
		return []Cube{appendAtom(nil, f)}, true
	case Or:
		var out []Cube
		for _, g := range f.Fs {
			cs, ok := cubesOf(g, max)
			if !ok {
				return nil, false
			}
			out = append(out, cs...)
			if len(out) > max {
				return nil, false
			}
		}
		return out, true
	case And:
		if c, ok := atomsCube(f.Fs); ok && max >= 1 {
			return []Cube{c}, true
		}
		return productCubes(f.Fs, max)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// appendAtom appends a's ≤-atoms to c: a itself, or for an equality
// L = 0 the pair L ≤ 0, -L ≤ 0.
func appendAtom(c Cube, a Atom) Cube {
	if a.Eq {
		return append(c, Atom{L: a.L}, Atom{L: a.L.Scale(-1)})
	}
	return append(c, a)
}

// atomsCube is the common case of productCubes, a conjunction of atoms
// only: its DNF is one cube, built here in one pass where the product
// re-copies the growing cube once per conjunct. False when some conjunct
// is not an atom.
func atomsCube(fs []Formula) (Cube, bool) {
	n := 0
	for _, g := range fs {
		a, ok := g.(Atom)
		if !ok {
			return nil, false
		}
		n++
		if a.Eq {
			n++
		}
	}
	c := make(Cube, 0, n)
	for _, g := range fs {
		c = appendAtom(c, g.(Atom))
	}
	return c, true
}

// productCubes is the DNF of the conjunction of fs: the product of the
// conjuncts' cube lists, each cube the concatenation of one cube per
// conjunct in order.
func productCubes(fs []Formula, max int) ([]Cube, bool) {
	out := []Cube{{}}
	for _, g := range fs {
		cs, ok := cubesOf(g, max)
		if !ok {
			return nil, false
		}
		var next []Cube
		for _, base := range out {
			for _, c := range cs {
				merged := make(Cube, 0, len(base)+len(c))
				merged = append(merged, base...)
				merged = append(merged, c...)
				next = append(next, merged)
				if len(next) > max {
					return nil, false
				}
			}
		}
		out = next
	}
	return out, true
}

// simplifyCube appends c to dst without its trivially-true and repeated
// atoms, every term normalized; the bool result is false when the cube is
// contradictory by constant folding alone. A caller that owns c passes
// c[:0] as dst and has it filtered in place; one that does not passes a
// fresh slice.
func simplifyCube(dst, c Cube) (Cube, bool) {
	var idBuf [nodeScratch]ID
	seen := idSet{ids: idBuf[:0]}
	var seenStr map[string]bool // fallback for intern-table overflow
	for _, a := range c {
		l := normalizeLE(a.L)
		if l.IsConst() {
			if l.K > 0 {
				return nil, false
			}
			continue
		}
		if id := LinID(l); id != 0 {
			var fresh bool
			if seen, fresh = seen.insert(id); !fresh {
				continue
			}
		} else {
			if seenStr == nil {
				seenStr = map[string]bool{}
			}
			k := l.String()
			if seenStr[k] {
				continue
			}
			seenStr[k] = true
		}
		dst = append(dst, Atom{L: l})
	}
	return dst, true
}

// eliminateVar removes v from the cube by Fourier–Motzkin combination.
// The exact result reports whether the projection is exact over the
// integers (every combined pair had a unit coefficient).
func eliminateVar(c Cube, v lang.Var, mode Shadow) (out Cube, exact bool, sat bool) {
	var lowers, uppers []struct {
		coef int64 // positive
		rest Lin   // term without v
	}
	exact = true
	for _, a := range c {
		coef := a.L.Coef(v)
		if coef == 0 {
			out = append(out, a)
			continue
		}
		rest := a.L.Subst(v, LinConst(0))
		if coef > 0 {
			// coef·v + rest ≤ 0 : upper bound coef·v ≤ -rest.
			uppers = append(uppers, struct {
				coef int64
				rest Lin
			}{coef, rest})
		} else {
			// coef·v + rest ≤ 0 with coef<0 : lower bound (-coef)·v ≥ rest.
			lowers = append(lowers, struct {
				coef int64
				rest Lin
			}{-coef, rest})
		}
	}
	if len(lowers) == 0 || len(uppers) == 0 {
		// v is unbounded on one side: any value works, projection exact.
		return out, true, true
	}
	if len(lowers)*len(uppers) > maxCombinations {
		// Blow-up guard. For the over-approximating real shadow, dropping
		// the combined constraints is sound (a larger set); for the
		// under-approximating dark shadow the sound fallback is the empty
		// set, reported as a contradictory cube.
		if mode == Over {
			return out, false, true
		}
		return nil, false, false
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			// lo.rest ≤ a·v and c·v ≤ -up.rest with a=lo.coef, c=up.coef:
			// real shadow c·lo.rest + a·up.rest ≤ 0.
			comb := lo.rest.Scale(up.coef).Add(up.rest.Scale(lo.coef))
			if lo.coef != 1 && up.coef != 1 {
				exact = false
				if mode == Under {
					// dark shadow: guarantee an integer point between the
					// rational bounds.
					comb = comb.AddConst((lo.coef - 1) * (up.coef - 1))
				}
			}
			comb = normalizeLE(comb)
			if comb.IsConst() {
				if comb.K > 0 {
					return nil, exact, false
				}
				continue
			}
			out = append(out, Atom{L: comb})
		}
	}
	out, ok := simplifyCube(out[:0], out) // out is this call's own
	return out, exact, ok
}

// ProjectCube eliminates all variables in elim from the cube. sat=false
// means the projected cube is contradictory (by constant folding during
// elimination).
func ProjectCube(c Cube, elim map[lang.Var]bool, mode Shadow) (out Cube, exact bool, sat bool) {
	out, ok := simplifyCube(make(Cube, 0, len(c)), c)
	if !ok {
		return nil, true, false
	}
	exact = true
	for _, v := range sortedVars(elim) {
		var ex bool
		out, ex, sat = eliminateVar(out, v, mode)
		exact = exact && ex
		if !sat {
			return nil, exact, false
		}
	}
	return out, exact, true
}

func sortedVars(set map[lang.Var]bool) []lang.Var {
	out := make([]lang.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// normalizeLE divides l by the gcd of its coefficients, in a copy.
func normalizeLE(l Lin) Lin {
	if l.coefGCD() <= 1 {
		return l
	}
	return l.clone().divideGCD()
}
