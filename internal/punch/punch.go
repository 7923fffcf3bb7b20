// Package punch defines the contract of BOLT's intraprocedural parameter
// PUNCH (§3.2): an analysis that takes a Ready query and either finishes
// it (adding an answering summary to SUMDB as its only side effect) or
// returns it Ready/Blocked together with fresh Ready child sub-queries.
//
// It also holds the kernel the three instantiations (must, may,
// maymust) are written over, as Crab's top-down and bottom-up analyzers
// are over one abstract transformer: the symbolic image of a statement,
// the crossing of a call with a must summary, the point test, the must
// summary a witness proves, and the glue of a Step (kernel.go). An
// instantiation keeps what makes it that analysis: must its path stack,
// may its backward walk and forward confirmation, may-must its frontier
// and must-map. The region-graph parts live in punch/regions.
package punch

import (
	"fmt"
	"sync"

	"repro/internal/cfg"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
)

// DB is the summary-database surface a PUNCH invocation sees: the lookup
// and insertion methods of *summary.DB, and nothing else. Engines hand
// PUNCH the real database directly, or — when provenance collection is
// on — a per-invocation recording frame that delegates to it while
// capturing the invocation's read and write sets. Keeping the interface
// to exactly the methods PUNCH uses is what makes that interposition a
// one-field swap instead of an engine rewrite.
type DB interface {
	// Solver returns the database's shared solver (entailment cache and
	// all); PUNCH charges its cost model off this solver's stats.
	Solver() *smt.Solver
	// Add inserts a summary (the §3.2 side effect of finishing a query).
	Add(s summary.Summary)
	// Answer reports +1/-1/0 for q against the stored summaries.
	Answer(q summary.Question) (summary.Summary, int)
	// AnswerYes reports whether a stored must-summary proves q.
	AnswerYes(q summary.Question) (summary.Summary, bool)
	// AnswerNo reports whether a stored not-may-summary refutes q.
	AnswerNo(q summary.Question) (summary.Summary, bool)
	// ForProc returns a stable view of proc's summaries.
	ForProc(proc string) []summary.Summary
}

// Context carries the shared resources a PUNCH invocation may use. Per the
// paper, SUMDB is the only shared mutable state; the allocator hands out
// globally unique query IDs. ModRef is whole-program side information
// computed once per run (the paper stores the analogous alias information
// alongside the database). Shelf is the node's shelf of finished queries'
// region graphs, the one deviation from "SUMDB only" (DESIGN.md §5.7): it
// holds nothing but eliminations that are sound for every entry state.
type Context struct {
	Prog   *cfg.Program
	DB     DB
	Alloc  *query.Allocator
	ModRef map[string]*cfg.ModRef
	Shelf  *Shelf
}

// ModRefOf returns the mod/ref record for proc, computing the table on
// first use when the engine did not prefill it.
func (c *Context) ModRefOf(proc string) *cfg.ModRef {
	if c.ModRef == nil {
		c.ModRef = c.Prog.ModRef()
	}
	return c.ModRef[proc]
}

// Result is the return value of one PUNCH invocation.
type Result struct {
	// Self is the updated copy Q'_i of the input query.
	Self *query.Query
	// Children are the new sub-queries C; per the §3.2 postcondition they
	// are all Ready and have Self as parent, and C is empty when Self is
	// Done.
	Children []*query.Query
	// Cost is the abstract work (solver-call-weighted steps) this
	// invocation consumed; the virtual-time scheduler charges it to the
	// worker that ran the invocation.
	Cost int64
}

// Punch is the intraprocedural analysis parameter.
//
// Precondition: q.State == Ready.
// Postcondition (§3.2): in the result r,
//   - r.Self.State == Done implies len(r.Children) == 0 and SUMDB now
//     contains a summary answering q.Q;
//   - otherwise r.Self.State ∈ {Ready, Blocked} and every child is Ready
//     with parent index r.Self.ID.
type Punch interface {
	Name() string
	Step(ctx *Context, q *query.Query) Result
}

// CheckContract validates the §3.2 postcondition of a PUNCH result. The
// engine runs it in testing builds; instantiations are also unit-tested
// against it directly.
func CheckContract(in *query.Query, r Result) error {
	if r.Self == nil {
		return fmt.Errorf("punch: nil Self for query %d", in.ID)
	}
	if r.Self.ID != in.ID {
		return fmt.Errorf("punch: Self ID changed from %d to %d", in.ID, r.Self.ID)
	}
	switch r.Self.State {
	case query.Done:
		if len(r.Children) != 0 {
			return fmt.Errorf("punch: Done query %d returned %d children", in.ID, len(r.Children))
		}
		if r.Self.Outcome == query.Pending {
			return fmt.Errorf("punch: Done query %d has no outcome", in.ID)
		}
	case query.Ready, query.Blocked:
		for _, c := range r.Children {
			if c.State != query.Ready {
				return fmt.Errorf("punch: child %d of query %d is %v, want Ready", c.ID, in.ID, c.State)
			}
			if c.Parent != in.ID {
				return fmt.Errorf("punch: child %d has parent %d, want %d", c.ID, c.Parent, in.ID)
			}
		}
	default:
		return fmt.Errorf("punch: query %d returned in invalid state %v", in.ID, r.Self.State)
	}
	return nil
}

// Meter accounts the abstract work of one PUNCH invocation and fronts the
// solver calls that are charged for: an instantiation embeds it in its
// per-Step state and reports Cost in its Result.
//
// The units are uncalibrated: a Charge prices what the code at its site
// did when the units were set. The 8 units may-must charges before it
// tests a region against a pre-image (handleSimpleFrontier) or a not-may
// summary's precondition (handleCallFrontier), and each complement, were
// set when both conjunctions were simplified before their Sat; Simplify
// now runs only where its result is kept, so they price two conjunctions
// and nothing else. The may analysis charged nothing for the same
// simplifications.
type Meter struct {
	Solver *smt.Solver
	Cost   int64
}

// Charge accounts n units of abstract work.
func (m *Meter) Charge(n int64) { m.Cost += n }

// Sat is a charged satisfiability check.
func (m *Meter) Sat(f logic.Formula) smt.Result {
	m.Charge(4)
	return m.Solver.Sat(f)
}

// Meets is a charged satisfiability check of path ∧ in[store], a
// symbolic state against a region: false only when it is proven
// unsatisfiable (smt.Solver.Meets).
func (m *Meter) Meets(path, in logic.Formula, store Store) bool {
	m.Charge(4)
	return m.Solver.Meets(path, in, store)
}

// Implies is a charged entailment check.
func (m *Meter) Implies(a, b logic.Formula) bool {
	m.Charge(4)
	return m.Solver.Implies(a, b)
}

// shelfCap bounds the graphs a shelf holds. Over the six Table-1 proofs
// on one thread a shelved graph was taken again after a median of 3–8
// later shelvings, and a 90th percentile of 11–20 on the five proofs
// with more than four takes. 16 keeps the tick and allocation gain of an
// unbounded shelf, and peak RSS within ±5 % of running without one;
// unbounded, a node held up to 79 graphs (toastmon), and peak RSS rose
// by 15–26 %.
const shelfCap = 16

// Shelf hands the refinement a finished may or may-must query found to
// the next query of the same procedure and postcondition: a node's region
// graphs, one per key — the procedure and the postcondition's interned id
// — and at most shelfCap of them. Shelving a key again drops the graph it
// had; a full shelf drops the least recently shelved. Taking is a move: a
// taken graph leaves the shelf, so no two queries ever hold one. The
// values are the analyses' (*regions.Graph); regions.Take and
// Graph.Shelve are the typed ends. A nil *Shelf holds nothing and takes
// nothing. Safe for concurrent use: MAP workers of a node share it.
type Shelf struct {
	mu    sync.Mutex
	items [shelfCap]shelved // items[:n], least recently shelved first
	n     int
	// shelved, taken and evicted count Puts, Takes that found a graph,
	// and graphs dropped untaken: shelved = taken + evicted + n.
	shelved, taken, evicted int64
}

type shelved struct {
	proc string
	post logic.ID
	g    any
}

// Put shelves g for the next Take of (proc, post); the caller holds it no
// more. It drops the graph the key had, or the least recently shelved one
// when the shelf is full.
func (s *Shelf) Put(proc string, post logic.ID, g any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := s.remove(proc, post) != nil
	if s.n == shelfCap {
		s.removeAt(0)
		dropped = true
	}
	if dropped {
		s.evicted++
	}
	s.items[s.n] = shelved{proc, post, g}
	s.n++
	s.shelved++
}

// Take removes and returns the graph shelved for (proc, post), nil when
// the shelf has none.
func (s *Shelf) Take(proc string, post logic.ID) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.remove(proc, post)
	if g != nil {
		s.taken++
	}
	return g
}

// remove takes the graph of (proc, post) off the shelf, nil when none.
func (s *Shelf) remove(proc string, post logic.ID) any {
	for i := range s.items[:s.n] {
		if it := s.items[i]; it.post == post && it.proc == proc {
			s.removeAt(i)
			return it.g
		}
	}
	return nil
}

// removeAt closes the gap items[i] leaves, keeping shelving order.
func (s *Shelf) removeAt(i int) {
	copy(s.items[i:], s.items[i+1:s.n])
	s.n--
	s.items[s.n] = shelved{}
}

// Counts returns how many graphs were shelved, taken and evicted so far.
func (s *Shelf) Counts() (shelved, taken, evicted int64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shelved, s.taken, s.evicted
}
