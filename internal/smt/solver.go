// Package smt is a small, self-contained satisfiability solver for
// quantifier-free linear integer arithmetic (QF_LIA), standing in for the
// Z3 solver used by the paper's implementation.
//
// Architecture: formulas with few disjuncts are decided directly on their
// DNF cubes; larger formulas go through a DPLL loop over a boolean
// abstraction of the atoms with lazy theory conflicts. The theory check is
// Fourier–Motzkin elimination over the rationals (refutation-complete for
// UNSAT over the integers), followed by a branch-and-bound style integer
// model search using the dark shadow when the real shadow admits only
// fractional witnesses.
//
// Every verdict is conservative: UNSAT is only reported when proven, and a
// model is only reported after it has been verified by evaluation. When
// the solver gives up (resource caps, dark-shadow incompleteness) it
// reports "possibly satisfiable, no model".
package smt

import (
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/logic"
)

// Result is the outcome of a satisfiability check.
type Result struct {
	// Sat is false only when the formula is proven unsatisfiable.
	Sat bool
	// Model is a verified satisfying assignment; nil when Sat is false or
	// the search was inconclusive.
	Model map[lang.Var]int64
	// Known is true when the verdict is definitive (proven unsat, or a
	// verified model was found).
	Known bool
}

// Stats carries the solver's operation counters. Counters are atomic so a
// single Solver can be shared between the parallel PUNCH instances, as
// SUMDB shares one in the paper's implementation. The JSON names are the
// live snapshot's (/debug/bolt/state); Each names the registry keys.
type Stats struct {
	SatCalls     int64 `json:"sat_calls"`
	TheoryChecks int64 `json:"theory_checks"`
	Conflicts    int64 `json:"conflicts"` // theory conflicts (blocked lazy-SMT assignments)
	Ticks        int64 `json:"ticks"`     // abstract work units, the currency of virtual time
	// Entailment-cache counters; all zero when the cache is disabled.
	EntailCacheHits   int64 `json:"entailment_cache_hits"`
	EntailCacheMisses int64 `json:"entailment_cache_misses"`
	EntailSynHits     int64 `json:"entailment_cache_syn_hits"` // misses settled by the syntactic pre-check, no DPLL
	// Learning-solver counters (cdcl.go).
	DPLLConflicts  int64 `json:"dpll_conflicts"`       // propositional conflicts analyzed by the CDCL core
	LearnedClauses int64 `json:"dpll_learned_clauses"` // clauses learned (1-UIP, theory-trail, blocking)
	Propagations   int64 `json:"dpll_propagations"`    // literals propagated by the two-watched scheme
	// Fill of the solver's memos (snapshot-only): the Sat, satCube and
	// entailment memos, and the one-step-feasibility and Simplify memos.
	// None evicts: one with TurnedAway > 0 is full.
	SatMemo      MemoStats `json:"memo_sat"`
	CubeMemo     MemoStats `json:"memo_cube"`
	EntailMemo   MemoStats `json:"memo_entail"`
	StepMemo     MemoStats `json:"memo_step"`
	SimplifyMemo MemoStats `json:"memo_simplify"`
}

// Each hands put every counter the metrics registry carries, under its
// registry key. SatCalls, Conflicts and Ticks are not among them: a run
// reports them on its Result.
func (s Stats) Each(put func(key string, v int64)) {
	put("theory_checks", s.TheoryChecks)
	put("entailment_cache_hits", s.EntailCacheHits)
	put("entailment_cache_misses", s.EntailCacheMisses)
	put("entailment_cache_syn_hits", s.EntailSynHits)
	put("dpll_conflicts", s.DPLLConflicts)
	put("dpll_learned_clauses", s.LearnedClauses)
	put("dpll_propagations", s.Propagations)
	memo := func(name string, m MemoStats) {
		put("solver_memo_"+name+"_entries", m.Entries)
		put("solver_memo_"+name+"_capacity", m.Capacity)
		put("solver_memo_"+name+"_turned_away", m.TurnedAway)
	}
	memo("sat", s.SatMemo)
	memo("cube", s.CubeMemo)
	memo("entail", s.EntailMemo)
	memo("step", s.StepMemo)
	memo("simplify", s.SimplifyMemo)
}

// Solver decides QF_LIA formulas. The zero value is not usable; call New.
type Solver struct {
	stats Stats
	// maxDNF is the cube count above which the DPLL path is used.
	maxDNF int
	// maxConflicts caps theory-conflict iterations before giving up.
	maxConflicts int
	// The run's memos (memo.go). sat keeps Sat results by formula id and
	// cubes keeps satCube verdicts by the id of the cube's atom set
	// (logic.Cube.ID): Fourier–Motzkin over a cube is a pure function of
	// the atom set, so elimination work is shared across the
	// near-identical assignments successive DPLL iterations produce.
	// entail keeps Implies verdicts by id pair and Valid verdicts by one
	// id; it is used only after EnableEntailmentCache. steps keeps
	// one-step feasibility by (statement, source, destination) and simp
	// keeps Simplify results by formula id.
	sat      resultMemo
	cubes    resultMemo
	entail   memo[key2, struct{}]
	entailOn bool
	steps    memo[key2, struct{}]
	simp     memo[key1, logic.Formula]
	// noStepMemo makes StepFeasible and Simplify compute every answer
	// afresh. Only tests set it, to show that the two memos change no
	// answer.
	noStepMemo bool
}

// Bounds on the memos. None evicts, so each is sized to hold what the
// largest Table-1 check asks of it (EXPERIMENTS.md records the fills).
const (
	maxSatMemo    = 1 << 15
	maxCubeMemo   = 1 << 14
	maxEntailMemo = 1 << 16
	maxStepMemo   = 1 << 16
	maxSimpMemo   = 1 << 14
)

// New returns a solver with default resource limits. The entailment
// cache starts disabled; callers opt in with EnableEntailmentCache.
func New() *Solver {
	s := &Solver{maxDNF: 256, maxConflicts: 1500}
	s.sat.max, s.cubes.max, s.entail.max = maxSatMemo, maxCubeMemo, maxEntailMemo
	s.steps.max, s.simp.max = maxStepMemo, maxSimpMemo
	return s
}

// EnableEntailmentCache switches on the sharded Implies/Valid memo and
// the syntactic subsumption pre-check. Must be called before the solver
// is shared between goroutines. Returns the receiver for chaining.
func (s *Solver) EnableEntailmentCache() *Solver {
	s.entailOn = true
	return s
}

// Ticks returns the cumulative abstract work units spent so far.
func (s *Solver) Ticks() int64 { return atomic.LoadInt64(&s.stats.Ticks) }

// StatsSnapshot returns a copy of the operation counters.
func (s *Solver) StatsSnapshot() Stats {
	return Stats{
		SatCalls:          atomic.LoadInt64(&s.stats.SatCalls),
		TheoryChecks:      atomic.LoadInt64(&s.stats.TheoryChecks),
		Conflicts:         atomic.LoadInt64(&s.stats.Conflicts),
		Ticks:             atomic.LoadInt64(&s.stats.Ticks),
		EntailCacheHits:   atomic.LoadInt64(&s.stats.EntailCacheHits),
		EntailCacheMisses: atomic.LoadInt64(&s.stats.EntailCacheMisses),
		EntailSynHits:     atomic.LoadInt64(&s.stats.EntailSynHits),
		DPLLConflicts:     atomic.LoadInt64(&s.stats.DPLLConflicts),
		LearnedClauses:    atomic.LoadInt64(&s.stats.LearnedClauses),
		Propagations:      atomic.LoadInt64(&s.stats.Propagations),
		SatMemo:           s.sat.stats(),
		CubeMemo:          s.cubes.stats(),
		EntailMemo:        s.entail.stats(),
		StepMemo:          s.steps.stats(),
		SimplifyMemo:      s.simp.stats(),
	}
}

func (s *Solver) tick(n int64) { atomic.AddInt64(&s.stats.Ticks, n) }

// Sat decides satisfiability of f over the integers. Results are
// memoized by formula structure: the hash-consed id.
func (s *Solver) Sat(f logic.Formula) Result {
	atomic.AddInt64(&s.stats.SatCalls, 1)
	s.tick(1)
	k := key1(logic.KeyID(f))
	r, ok := s.sat.get(k)
	if !ok {
		r = s.satUncached(f)
		s.sat.put(k, r)
	}
	return r
}

// resultMemo keeps Results: the verdict in the slot's bits, a model out
// of line.
type resultMemo struct{ memo[key1, map[lang.Var]int64] }

const (
	bitSat   = 1
	bitKnown = 2
)

func (c *resultMemo) get(k key1) (Result, bool) {
	bits, model, ok := c.memo.get(0, k)
	return Result{Sat: bits&bitSat != 0, Known: bits&bitKnown != 0, Model: model}, ok
}

func (c *resultMemo) put(k key1, r Result) {
	var bits uint32
	if r.Sat {
		bits |= bitSat
	}
	if r.Known {
		bits |= bitKnown
	}
	c.memo.put(0, k, bits, r.Model, r.Model != nil)
}

// verdict packs a bool memo's value into a slot's bits.
func verdict(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// StepFeasible reports whether some state of from may step across stmt
// into to: false only when from ∧ pre(stmt, to) is proven unsatisfiable.
// stmtID identifies the statement's content (cfg.Edge.StmtID, 0 when the
// statement has none), so the answer is a pure function of the three ids
// and is looked up before the pre-image or the conjunction is built: the
// same statement between the same two region formulas is asked again by
// every query over the procedure and by every edge that carries it.
func (s *Solver) StepFeasible(stmtID uint32, stmt lang.Stmt, from, to logic.Formula) bool {
	k := key2{logic.KeyID(from), logic.KeyID(to)}
	keyed := stmtID != 0 && !s.noStepMemo
	if keyed {
		if open, _, ok := s.steps.get(stmtID, k); ok {
			return open != 0
		}
	}
	open, decided := s.stepKernel(stmt, from, to)
	if !decided {
		r := s.Sat(logic.Conj(from, logic.Pre(stmt, to, logic.Over)))
		open = r.Sat || !r.Known
	}
	if keyed {
		s.steps.put(stmtID, k, verdict(open), struct{}{}, false)
	}
	return open
}

// stepKernel decides StepFeasible's Sat check on the cubes of from ∧
// pre(stmt, to) in the cube kernel (logic.Scratch.EachStepCube); see
// kernelCube.
func (s *Solver) stepKernel(stmt lang.Stmt, from, to logic.Formula) (open, decided bool) {
	fm := logic.GetScratch()
	defer fm.Release()
	decided = fm.EachStepCube(stmt, from, to, s.maxDNF, maxFormulaSize, func(c logic.Cube) bool {
		open = s.kernelCube(c)
		return !open
	})
	s.kernelDecided(decided)
	return open, decided
}

// Meets reports whether some state of path ∧ f[sub] may exist: false only
// when Conj(path, SubstMap(f, sub)) is proven unsatisfiable. This is the
// verdict Sat reaches on that formula, counted as one Sat call, but
// reached without building the formula or searching for a model where
// the cube kernel can decide it.
func (s *Solver) Meets(path, f logic.Formula, sub map[lang.Var]logic.Lin) bool {
	open, decided := s.meetKernel(path, f, sub)
	if !decided {
		r := s.Sat(logic.Conj(path, logic.SubstMap(f, sub)))
		open = r.Sat || !r.Known
	}
	return open
}

// meetKernel decides Meets on the cubes of path ∧ f[sub] in the cube
// kernel (logic.Scratch.EachMeetCube); see kernelCube.
func (s *Solver) meetKernel(path, f logic.Formula, sub map[lang.Var]logic.Lin) (open, decided bool) {
	fm := logic.GetScratch()
	defer fm.Release()
	decided = fm.EachMeetCube(path, f, sub, s.maxDNF, maxFormulaSize, func(c logic.Cube) bool {
		open = s.kernelCube(c)
		return !open
	})
	s.kernelDecided(decided)
	return open, decided
}

// kernelCube is one cube of a Sat check the cube kernel decides without
// building or interning the formula: the check is proven unsatisfiable
// exactly when real-shadow elimination refutes every cube, which is the
// verdict Sat reaches on that formula through satCube. kernelDecided
// counts the check as one Sat call, as the check it replaces, once the
// kernel has decided it; where the kernel cannot vouch for the cubes Sat
// would see, the caller asks Sat.
func (s *Solver) kernelCube(c logic.Cube) (open bool) {
	atomic.AddInt64(&s.stats.TheoryChecks, 1)
	s.tick(1)
	return s.rationallySat(c)
}

func (s *Solver) kernelDecided(decided bool) {
	if decided {
		atomic.AddInt64(&s.stats.SatCalls, 1)
		s.tick(1)
	}
}

// maxFormulaSize bounds the formulas the solver will attempt; beyond it
// the conservative "possibly satisfiable" verdict is returned immediately
// (sound for every use in the analyses: proofs need proven-unsat, and
// witnesses need verified models).
const maxFormulaSize = 2500

func (s *Solver) satUncached(f logic.Formula) Result {
	if logic.Size(f) > maxFormulaSize {
		return Result{Sat: true}
	}
	switch g := f.(type) {
	case logic.Bool:
		if bool(g) {
			return Result{Sat: true, Model: map[lang.Var]int64{}, Known: true}
		}
		return Result{Known: true}
	}
	// Fast path: small DNF, decide cube by cube until one has a model.
	// The walk splits an equality into the two atoms eliminateEq would
	// make of it, so the cubes are those of the rewritten formula up to
	// duplicates: eliminateEq's Conj and Disj drop a disjunct its
	// rewriting makes equal to another, the walk does not. A duplicate
	// within the bound is decided as its twin was; a formula past the
	// bound is rewritten and tried again, because dropping its duplicates
	// may bring it under.
	if r, ok := s.satCubes(f); ok {
		return r
	}
	if !hasEq(f) {
		return s.satDPLL(f)
	}
	f = eliminateEq(f)
	if b, ok := f.(logic.Bool); ok {
		return s.satUncached(b) // the rewriting folded f to a constant
	}
	if r, ok := s.satCubes(f); ok {
		return r
	}
	return s.satDPLL(f)
}

// satCubes decides f cube by cube until one has a model; false when f
// has more than maxDNF cubes.
func (s *Solver) satCubes(f logic.Formula) (Result, bool) {
	var found Result
	unknown := false
	if !logic.EachCube(f, s.maxDNF, func(c logic.Cube) bool {
		r := s.satCube(c)
		if r.Sat && r.Known {
			found = r
			return false
		}
		unknown = unknown || !r.Known
		return true
	}) {
		return Result{}, false
	}
	switch {
	case found.Known:
		return found, true
	case unknown:
		return Result{Sat: true}, true
	}
	return Result{Known: true}, true
}

// satCube decides a single conjunction of ≤-atoms. Verdicts are
// memoized by the cube's atom-set identity: a hit costs one tick instead
// of re-running elimination.
func (s *Solver) satCube(c logic.Cube) Result {
	atomic.AddInt64(&s.stats.TheoryChecks, 1)
	key := key1(c.ID())
	if r, ok := s.cubes.get(key); ok {
		s.tick(1)
		return r
	}
	r := s.satCubeUncached(c)
	s.cubes.put(key, r)
	return r
}

func (s *Solver) satCubeUncached(c logic.Cube) Result {
	s.tick(int64(len(c)) + 1)
	if !s.rationallySat(c) {
		return Result{Known: true}
	}
	fm := logic.GetScratch()
	model := s.findIntModel(fm, c, fm.Vars(c), 0)
	fm.Release()
	if model == nil {
		return Result{Sat: true} // rational-sat, integer status unknown
	}
	if !logic.Eval(c.Formula(), model) {
		// Defensive: a model we cannot verify is treated as unknown.
		return Result{Sat: true}
	}
	return Result{Sat: true, Model: model, Known: true}
}

// rationallySat runs real-shadow FM elimination of every variable to
// refute the cube over the rationals. A false answer is a proof of
// integer unsatisfiability. The projection itself is not needed, so its
// scratch is released here.
func (s *Solver) rationallySat(c logic.Cube) bool {
	fm := logic.GetScratch()
	_, _, sat := fm.Project(c, fm.Vars(c), logic.Over)
	fm.Release()
	s.tick(int64(len(c)))
	return sat
}

// findIntModel searches for an integer model of the cube over vars, its
// variables sorted; a model it returns assigns every one of them. It
// eliminates them one at a time, first with the real shadow; if
// back-substitution finds an empty integer interval it retries with the
// dark shadow, whose result guarantees an integer witness for the
// eliminated variable. Every projection lives in fm until the caller
// releases it. The search gives up past maxModelDepth variables, and it
// does so before it projects anything: one level deeper than that would
// fail on every branch, after a projection and a retry per level, which
// is 2^depth projections held in fm.
func (s *Solver) findIntModel(fm *logic.Scratch, c logic.Cube, vars []lang.Var, depth int) map[lang.Var]int64 {
	s.tick(1)
	if depth+len(vars) > maxModelDepth {
		return nil
	}
	if len(vars) == 0 {
		// Ground cube: satisfiable iff no positive constant remains,
		// which Project's simplification establishes.
		if _, _, sat := fm.Project(c, nil, logic.Over); !sat {
			return nil
		}
		return map[lang.Var]int64{}
	}
	v := vars[0]
	try := func(mode logic.Shadow) map[lang.Var]int64 {
		proj, _, sat := fm.Project(c, vars[:1], mode)
		if !sat {
			return nil
		}
		m := s.findIntModel(fm, proj, vars[1:], depth+1)
		if m == nil {
			return nil
		}
		lo, hi, hasLo, hasHi := logic.BoundsOn(c, v, m)
		switch {
		case hasLo && hasHi && lo > hi:
			return nil
		case hasLo && hasHi:
			m[v] = clamp(0, lo, hi)
		case hasLo:
			m[v] = max64(0, lo)
		case hasHi:
			m[v] = min64(0, hi)
		default:
			m[v] = 0
		}
		return m
	}
	if m := try(logic.Over); m != nil {
		return m
	}
	return try(logic.Under)
}

// maxModelDepth is the most variables findIntModel assigns.
const maxModelDepth = 64

func (s *Solver) validUncached(f logic.Formula) bool {
	r := s.Sat(logic.Not(f))
	return r.Known && !r.Sat
}

// Implies reports whether a ⇒ b is proven valid. Structurally identical
// formulas short-circuit without a solver call — an integer comparison
// of interned ids; with the entailment cache enabled, verdicts are
// memoized by the id pair and a cheap syntactic subsumption pre-check
// runs before DPLL.
func (s *Solver) Implies(a, b logic.Formula) bool {
	ida, idb := logic.KeyID(a), logic.KeyID(b)
	if ida == idb {
		return true
	}
	if !s.entailOn {
		return s.validUncached(logic.Disj(logic.Not(a), b))
	}
	key := key2{ida, idb}
	if v, _, ok := s.entail.get(0, key); ok {
		atomic.AddInt64(&s.stats.EntailCacheHits, 1)
		return v != 0
	}
	atomic.AddInt64(&s.stats.EntailCacheMisses, 1)
	v := s.impliesUncached(a, b)
	s.entail.put(0, key, verdict(v), struct{}{}, false)
	return v
}

func (s *Solver) impliesUncached(a, b logic.Formula) bool {
	if syntacticImplies(a, b) {
		atomic.AddInt64(&s.stats.EntailSynHits, 1)
		s.tick(1)
		return true
	}
	return s.validUncached(logic.Disj(logic.Not(a), b))
}

// Model returns a verified model of f, or nil when none was found (which
// does not prove unsatisfiability unless Sat reports Known).
func (s *Solver) Model(f logic.Formula) map[lang.Var]int64 {
	r := s.Sat(f)
	return r.Model
}

// eliminateEq rewrites equality atoms into conjunctions of inequalities so
// the DPLL abstraction only sees ≤-atoms, which negate to single atoms. A
// formula without an equality atom is returned as it is.
func eliminateEq(f logic.Formula) logic.Formula {
	if !hasEq(f) {
		return f
	}
	switch f := f.(type) {
	case logic.Atom:
		return logic.Conj(logic.LE(f.L), logic.LE(f.L.Scale(-1)))
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = eliminateEq(g)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = eliminateEq(g)
		}
		return logic.Disj(out...)
	default:
		return f
	}
}

// hasEq reports whether an equality atom occurs in f.
func hasEq(f logic.Formula) bool {
	var fs []logic.Formula
	switch f := f.(type) {
	case logic.Atom:
		return f.Eq
	case logic.And:
		fs = f.Fs
	case logic.Or:
		fs = f.Fs
	}
	for _, g := range fs {
		if hasEq(g) {
			return true
		}
	}
	return false
}

func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
