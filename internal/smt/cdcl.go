// Conflict-driven clause learning over the propositional skeleton
// (skeleton.go): the production replacement for the restart-from-scratch
// recursive DPLL that naive_test.go keeps as the differential-testing
// reference. Two-watched-literal propagation, 1-UIP conflict analysis
// with backjumping, VSIDS-style branching with phase saving, and a
// backtrackable theory trail (theory.go) that prunes theory-
// inconsistent partial assignments before they reach a full
// Fourier–Motzkin check. Clauses learned from propositional conflicts,
// theory-trail conflicts and theory blocking clauses all persist across
// the lazy-SMT iterations, so the near-identical entailment queries the
// analyses generate prune instead of re-searching.
//
// Soundness note on the `unknown` flag: blocking clauses for
// assignments whose cube is rationally satisfiable but lacks an integer
// witness are not logical consequences of the formula, so learned
// clauses derived from them are tainted — but such a clause is only
// ever added after `unknown` is set, and once set the loop never
// reports proven-UNSAT, exactly mirroring the naive loop's contract.
package smt

import (
	"sync/atomic"

	"repro/internal/logic"
)

type cdclStatus int

const (
	cdclSat    cdclStatus = iota // full propositional model found
	cdclUnsat                    // propositionally exhausted
	cdclBudget                   // propositional-conflict budget exceeded
)

// satDPLL decides satisfiability of a formula whose DNF is too large to
// enumerate: the lazy SMT loop with a learning SAT core. Budget
// semantics match the naive loop: at most maxConflicts theory
// iterations, with exhaustion reported as "possibly satisfiable".
func (s *Solver) satDPLL(f logic.Formula) Result {
	sk := newSkeleton(f)
	c := newCDCL(sk)
	defer func() {
		atomic.AddInt64(&s.stats.DPLLConflicts, c.conflicts)
		atomic.AddInt64(&s.stats.LearnedClauses, c.learned)
		atomic.AddInt64(&s.stats.Propagations, c.props)
	}()
	// Defensive cap on propositional conflicts across the whole call;
	// exceeding it yields the conservative unknown verdict.
	propBudget := int64(s.maxConflicts)*64 + 4096
	unknown := false
	for i := 0; i < s.maxConflicts; i++ {
		switch c.search(propBudget) {
		case cdclBudget:
			return Result{Sat: true}
		case cdclUnsat:
			if unknown {
				return Result{Sat: true}
			}
			return Result{Known: true} // propositionally exhausted
		}
		cube := sk.theoryCube(c.assign)
		r := s.satCube(cube)
		if r.Sat && r.Known {
			return r
		}
		if r.Sat && !r.Known {
			// Rationally satisfiable but no integer witness found: block
			// this assignment and remember we cannot claim UNSAT.
			unknown = true
		}
		atomic.AddInt64(&s.stats.Conflicts, 1)
		lits := sk.blockingLits(s, c.assign, !r.Sat && r.Known)
		if !c.addBlocking(lits) {
			if unknown {
				return Result{Sat: true}
			}
			return Result{Known: true}
		}
	}
	return Result{Sat: true}
}

// cdcl is the learning SAT core over a skeleton's clause set.
type cdcl struct {
	sk       *skeleton
	nvars    int
	clauses  [][]int // initial + learned; watched literals at positions 0 and 1
	watches  [][]int // watch lists: widx(lit) → clause indices watching lit
	assign   []int8  // 0 unassigned, 1 true, -1 false
	level    []int   // decision level of each assigned var
	reason   []int   // clause index that propagated the var, -1 for decisions
	trail    []int   // assigned literals in order
	trailLim []int   // trail length at each decision
	thLim    []int   // theory-trail length at each decision
	qhead    int
	activity []float64
	varInc   float64
	phase    []int8 // saved polarity per var
	seen     []bool // scratch for analyze
	varAtom  []int  // var index → atom index, -1 for gate vars
	th       *theoryTrail
	failed   bool // contradictory unit clauses at construction

	conflicts int64 // propositional + theory-trail conflicts
	learned   int64
	props     int64
}

func litVar(lit int) int {
	if lit < 0 {
		return -lit - 1
	}
	return lit - 1
}

// widx indexes the watch list of a literal.
func widx(lit int) int {
	if lit > 0 {
		return 2 * (lit - 1)
	}
	return 2*(-lit-1) + 1
}

func newCDCL(sk *skeleton) *cdcl {
	n := sk.nvars
	c := &cdcl{
		sk:       sk,
		nvars:    n,
		watches:  make([][]int, 2*n),
		assign:   make([]int8, n),
		level:    make([]int, n),
		reason:   make([]int, n),
		activity: make([]float64, n),
		varInc:   1,
		phase:    make([]int8, n),
		seen:     make([]bool, n),
		varAtom:  make([]int, n),
		th:       newTheoryTrail(),
	}
	for i := range c.reason {
		c.reason[i] = -1
	}
	for i := range c.phase {
		c.phase[i] = 1 // try true first, like the naive loop
	}
	for i := range c.varAtom {
		c.varAtom[i] = -1
	}
	for i, v := range sk.atomVars {
		c.varAtom[v] = i
	}
	c.clauses = make([][]int, 0, len(sk.clauses)+64)
	for _, cl := range sk.clauses {
		ci := len(c.clauses)
		c.clauses = append(c.clauses, cl)
		if len(cl) == 1 {
			if !c.enqueue(cl[0], ci) {
				c.failed = true
				return c
			}
			continue
		}
		c.watches[widx(cl[0])] = append(c.watches[widx(cl[0])], ci)
		c.watches[widx(cl[1])] = append(c.watches[widx(cl[1])], ci)
	}
	return c
}

func (c *cdcl) decisionLevel() int   { return len(c.trailLim) }
func (c *cdcl) litLevel(lit int) int { return c.level[litVar(lit)] }

// enqueue assigns lit with the given reason clause. Returns false when
// lit is already false (the caller owns the conflict).
func (c *cdcl) enqueue(lit, reason int) bool {
	switch litValue(c.assign, lit) {
	case 1:
		return true
	case -1:
		return false
	}
	v := litVar(lit)
	if lit > 0 {
		c.assign[v] = 1
	} else {
		c.assign[v] = -1
	}
	c.level[v] = c.decisionLevel()
	c.reason[v] = reason
	c.trail = append(c.trail, lit)
	return true
}

// propagate runs two-watched-literal unit propagation (with theory
// assertion per dequeued atom literal) to fixpoint. Returns the index
// of a conflicting clause, or -1.
func (c *cdcl) propagate() int {
	for c.qhead < len(c.trail) {
		lit := c.trail[c.qhead]
		c.qhead++
		c.props++
		if ai := c.varAtom[litVar(lit)]; ai >= 0 {
			if !c.th.assert(cubeAtom(c.sk.atoms[ai], lit > 0), lit) {
				return c.theoryConflict()
			}
		}
		neg := -lit
		wi := widx(neg)
		ws := c.watches[wi]
		out := ws[:0]
		conflict := -1
		for k := 0; k < len(ws); k++ {
			ci := ws[k]
			cl := c.clauses[ci]
			if cl[0] == neg {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if litValue(c.assign, cl[0]) == 1 {
				out = append(out, ci)
				continue
			}
			moved := false
			for j := 2; j < len(cl); j++ {
				if litValue(c.assign, cl[j]) != -1 {
					cl[1], cl[j] = cl[j], cl[1]
					c.watches[widx(cl[1])] = append(c.watches[widx(cl[1])], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			out = append(out, ci) // stays watched; clause is unit or conflicting
			if !c.enqueue(cl[0], ci) {
				out = append(out, ws[k+1:]...)
				conflict = ci
				break
			}
		}
		c.watches[wi] = out
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// theoryConflict materializes the current theory-trail conflict as a
// learned clause (the negation of every asserted atom literal — a
// logical consequence, since the trail proved them jointly unsat) and
// returns its index for analysis.
func (c *cdcl) theoryConflict() int {
	cl := make([]int, len(c.th.lits))
	for i, l := range c.th.lits {
		cl[i] = -l
	}
	c.learned++
	return c.addUnderAssignment(cl)
}

// addUnderAssignment adds a clause whose literals are all currently
// false, placing the two highest-level literals at the watched
// positions so the watch invariant holds after backjumping.
func (c *cdcl) addUnderAssignment(cl []int) int {
	ci := len(c.clauses)
	if len(cl) >= 2 {
		hi := 0
		for j := 1; j < len(cl); j++ {
			if c.litLevel(cl[j]) > c.litLevel(cl[hi]) {
				hi = j
			}
		}
		cl[0], cl[hi] = cl[hi], cl[0]
		hi2 := 1
		for j := 2; j < len(cl); j++ {
			if c.litLevel(cl[j]) > c.litLevel(cl[hi2]) {
				hi2 = j
			}
		}
		cl[1], cl[hi2] = cl[hi2], cl[1]
		c.clauses = append(c.clauses, cl)
		c.watches[widx(cl[0])] = append(c.watches[widx(cl[0])], ci)
		c.watches[widx(cl[1])] = append(c.watches[widx(cl[1])], ci)
		return ci
	}
	c.clauses = append(c.clauses, cl) // unit: used as a conflict, unwatched
	return ci
}

// handleConflict learns a 1-UIP clause from the conflict and backjumps.
// Returns false when the conflict proves propositional unsatisfiability
// (it involves only root-level assignments).
func (c *cdcl) handleConflict(confl int) bool {
	c.conflicts++
	// Injected clauses (theory conflicts, blocking clauses) may sit
	// entirely below the current decision level; first backtrack to the
	// highest literal level so analyze sees a current-level conflict.
	ml := 0
	for _, q := range c.clauses[confl] {
		if l := c.litLevel(q); l > ml {
			ml = l
		}
	}
	if ml == 0 {
		return false
	}
	if ml < c.decisionLevel() {
		c.cancelUntil(ml)
	}
	learnt, back := c.analyze(confl)
	c.cancelUntil(back)
	c.addLearnt(learnt)
	c.varInc /= 0.95 // VSIDS decay
	return true
}

// analyze derives the first-UIP learned clause from the conflict.
// Returns the clause (asserting literal at position 0, highest-level
// remaining literal at position 1) and the backjump level.
func (c *cdcl) analyze(confl int) ([]int, int) {
	learnt := []int{0} // slot 0 reserved for the asserting literal
	counter := 0
	p := 0 // literal last resolved on (0 on the first iteration)
	idx := len(c.trail) - 1
	curLevel := c.decisionLevel()
	for {
		cl := c.clauses[confl]
		start := 0
		if p != 0 {
			start = 1 // cl[0] is the propagated literal p itself
		}
		for _, q := range cl[start:] {
			v := litVar(q)
			if !c.seen[v] && c.level[v] > 0 {
				c.seen[v] = true
				c.bump(v)
				if c.level[v] >= curLevel {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !c.seen[litVar(c.trail[idx])] {
			idx--
		}
		p = c.trail[idx]
		vp := litVar(p)
		c.seen[vp] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
		confl = c.reason[vp]
	}
	learnt[0] = -p
	for _, q := range learnt[1:] {
		c.seen[litVar(q)] = false
	}
	back := 0
	if len(learnt) > 1 {
		hi := 1
		for j := 2; j < len(learnt); j++ {
			if c.litLevel(learnt[j]) > c.litLevel(learnt[hi]) {
				hi = j
			}
		}
		learnt[1], learnt[hi] = learnt[hi], learnt[1]
		back = c.litLevel(learnt[1])
	}
	return learnt, back
}

// addLearnt installs the learned clause and asserts its first literal.
func (c *cdcl) addLearnt(learnt []int) {
	c.learned++
	if len(learnt) == 1 {
		c.enqueue(learnt[0], -1) // asserted at the root
		return
	}
	ci := len(c.clauses)
	c.clauses = append(c.clauses, learnt)
	c.watches[widx(learnt[0])] = append(c.watches[widx(learnt[0])], ci)
	c.watches[widx(learnt[1])] = append(c.watches[widx(learnt[1])], ci)
	c.enqueue(learnt[0], ci)
}

func (c *cdcl) bump(v int) {
	c.activity[v] += c.varInc
	if c.activity[v] > 1e100 {
		for i := range c.activity {
			c.activity[i] *= 1e-100
		}
		c.varInc *= 1e-100
	}
}

// pickBranch returns the unassigned variable with the highest activity
// (lowest index on ties, keeping the search deterministic), or -1 when
// every variable is assigned.
func (c *cdcl) pickBranch() int {
	best := -1
	for v := 0; v < c.nvars; v++ {
		if c.assign[v] == 0 && (best < 0 || c.activity[v] > c.activity[best]) {
			best = v
		}
	}
	return best
}

func (c *cdcl) newDecisionLevel() {
	c.trailLim = append(c.trailLim, len(c.trail))
	c.thLim = append(c.thLim, c.th.size())
}

// cancelUntil backtracks to the given decision level, saving phases and
// unwinding the theory trail in lockstep.
func (c *cdcl) cancelUntil(level int) {
	if c.decisionLevel() <= level {
		return
	}
	for i := len(c.trail) - 1; i >= c.trailLim[level]; i-- {
		v := litVar(c.trail[i])
		c.phase[v] = c.assign[v]
		c.assign[v] = 0
		c.reason[v] = -1
	}
	c.trail = c.trail[:c.trailLim[level]]
	c.trailLim = c.trailLim[:level]
	c.th.popTo(c.thLim[level])
	c.thLim = c.thLim[:level]
	c.qhead = len(c.trail)
}

// search runs CDCL until a full model, propositional exhaustion, or the
// cumulative conflict budget.
func (c *cdcl) search(propBudget int64) cdclStatus {
	if c.failed {
		return cdclUnsat
	}
	for {
		confl := c.propagate()
		if confl >= 0 {
			if !c.handleConflict(confl) {
				return cdclUnsat
			}
			if c.conflicts >= propBudget {
				return cdclBudget
			}
			continue
		}
		v := c.pickBranch()
		if v < 0 {
			return cdclSat
		}
		c.newDecisionLevel()
		lit := v + 1
		if c.phase[v] < 0 {
			lit = -lit
		}
		c.enqueue(lit, -1)
	}
}

// addBlocking installs a theory blocking clause for the current full
// assignment and backjumps past it. Returns false when the clause
// proves the propositional space exhausted.
func (c *cdcl) addBlocking(lits []int) bool {
	if len(lits) == 0 {
		return false
	}
	ml := 0
	for _, q := range lits {
		if l := c.litLevel(q); l > ml {
			ml = l
		}
	}
	if ml == 0 {
		return false // the blocked assignment is forced at the root
	}
	c.learned++
	return c.handleConflict(c.addUnderAssignment(lits))
}
