package smt

import (
	"fmt"

	"repro/internal/logic"
)

// skeleton is the propositional abstraction: atom i of atoms corresponds
// to boolean variable i; gate variables for And/Or nodes follow.
type skeleton struct {
	atoms    []logic.Atom
	atomVars []int // boolean variable index of atoms[i]
	index    map[logic.ID]int
	clauses  [][]int // literals: +v+1 (positive), -(v+1) (negative)
	nvars    int
}

func newSkeleton(f logic.Formula) *skeleton {
	sk := &skeleton{index: map[logic.ID]int{}}
	root := sk.encode(f)
	sk.clauses = append(sk.clauses, []int{root})
	return sk
}

// atomVar interns the atom and returns its boolean variable index. The
// key is the hash-consed id of the atom's term — an integer map lookup
// instead of the string render this used to pay per encode.
func (sk *skeleton) atomVar(a logic.Atom) int {
	id := logic.LinID(a.L)
	if i, ok := sk.index[id]; ok {
		return i
	}
	i := sk.addAtom(a)
	sk.index[id] = i
	return i
}

func (sk *skeleton) addAtom(a logic.Atom) int {
	i := sk.nvars
	sk.nvars++
	sk.atoms = append(sk.atoms, a)
	sk.atomVars = append(sk.atomVars, i)
	return i
}

// encode returns the literal representing f, adding Plaisted–Greenbaum
// (one-sided, sufficient for NNF) definition clauses for gates.
func (sk *skeleton) encode(f logic.Formula) int {
	switch f := f.(type) {
	case logic.Bool:
		// Encode constants as a fresh gate forced to the right value.
		g := sk.freshGate()
		if bool(f) {
			sk.clauses = append(sk.clauses, []int{g})
		} else {
			sk.clauses = append(sk.clauses, []int{-g})
		}
		return g
	case logic.Atom:
		if f.Eq {
			panic("smt: equality atom reached the DPLL skeleton")
		}
		return sk.atomVar(f) + 1
	case logic.And:
		g := sk.freshGate()
		for _, child := range f.Fs {
			c := sk.encode(child)
			sk.clauses = append(sk.clauses, []int{-g, c})
		}
		return g
	case logic.Or:
		g := sk.freshGate()
		cl := []int{-g}
		for _, child := range f.Fs {
			cl = append(cl, sk.encode(child))
		}
		sk.clauses = append(sk.clauses, cl)
		return g
	default:
		panic(fmt.Sprintf("smt: unknown Formula %T", f))
	}
}

func (sk *skeleton) freshGate() int {
	sk.nvars++
	return sk.nvars // 1-based literal for the new var (index nvars-1)
}

func litValue(assign []int8, lit int) int8 {
	v := lit
	if v < 0 {
		v = -v
	}
	a := assign[v-1]
	if lit < 0 {
		return -a
	}
	return a
}

// theoryCube collects the linear constraints asserted by the assignment:
// atom true contributes L ≤ 0, atom false contributes ¬(L ≤ 0) = -L+1 ≤ 0.
func (sk *skeleton) theoryCube(assign []int8) logic.Cube {
	var cube logic.Cube
	for i, a := range sk.atoms {
		switch assign[sk.atomVars[i]] {
		case 1:
			cube = append(cube, a)
		case -1:
			cube = append(cube, logic.Atom{L: a.L.Scale(-1).AddConst(1)})
		}
	}
	return cube
}

// blockingLits computes the clause forbidding the atom part of the
// current full assignment: literals over atom variables only, since gate
// variables are functionally determined and must not appear in learned
// clauses. When the conflict is a proven theory UNSAT the clause is
// minimized greedily: drop literals whose removal keeps the remaining
// constraint set unsatisfiable, so the clause prunes more of the space.
func (sk *skeleton) blockingLits(s *Solver, assign []int8, provenUnsat bool) []int {
	type litAtom struct {
		lit  int
		atom logic.Atom
	}
	var lits []litAtom
	for i := range sk.atoms {
		v := sk.atomVars[i]
		switch assign[v] {
		case 1:
			lits = append(lits, litAtom{-(v + 1), cubeAtom(sk.atoms[i], true)})
		case -1:
			lits = append(lits, litAtom{v + 1, cubeAtom(sk.atoms[i], false)})
		}
	}
	if provenUnsat && len(lits) > 2 && len(lits) <= 64 {
		kept := lits
		for i := 0; i < len(kept) && len(kept) > 1; {
			trial := make(logic.Cube, 0, len(kept)-1)
			for j, la := range kept {
				if j != i {
					trial = append(trial, la.atom)
				}
			}
			if !s.rationallySat(trial) {
				kept = append(kept[:i:i], kept[i+1:]...)
			} else {
				i++
			}
		}
		lits = kept
	}
	cl := make([]int, len(lits))
	for i, la := range lits {
		cl[i] = la.lit
	}
	return cl
}

func cubeAtom(a logic.Atom, positive bool) logic.Atom {
	if positive {
		return a
	}
	return logic.Atom{L: a.L.Scale(-1).AddConst(1)}
}
