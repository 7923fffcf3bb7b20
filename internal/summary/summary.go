// Package summary implements the two summary kinds of §3.1 — must
// summaries and not-may summaries — and SUMDB, the concurrent summary
// database that is the only state shared between parallel PUNCH instances
// (Fig. 1 of the paper).
package summary

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/smt"
)

// Kind distinguishes the two summary flavours.
type Kind int

// Summary kinds.
const (
	// Must: every exit state in Post is reachable from some entry state in
	// Pre. Witnesses reachability ("yes" answers / bugs).
	Must Kind = iota
	// NotMay: no entry state in Pre can reach any exit state in Post.
	// Witnesses unreachability ("no" answers / proofs).
	NotMay
)

func (k Kind) String() string {
	switch k {
	case Must:
		return "must"
	case NotMay:
		return "not-may"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Summary is a procedure summary over the program's global variables.
type Summary struct {
	Kind Kind
	Proc string
	Pre  logic.Formula
	Post logic.Formula
}

func (s Summary) String() string {
	arrow := "=>must"
	if s.Kind == NotMay {
		arrow = "=>notmay"
	}
	return fmt.Sprintf("(%s %s_%s %s)", s.Pre, arrow, s.Proc, s.Post)
}

// Question is a reachability question (φ1 ⇒?_P φ2) over globals: can P,
// started in a state satisfying Pre, reach an exit state satisfying Post?
type Question struct {
	Proc string
	Pre  logic.Formula
	Post logic.Formula
}

func (q Question) String() string {
	return fmt.Sprintf("(%s =?>_%s %s)", q.Pre, q.Proc, q.Post)
}

// Key is the canonical identity of a question: two questions with equal
// keys ask the same thing and are answered by the same summaries. It is
// the index key for the engines' in-flight query coalescing.
func (q Question) Key() string {
	return q.Proc + "|" + formulaKey(q.Pre) + "|" + formulaKey(q.Post)
}

// formulaKey is logic.Key made safe for the nil formulas scripted test
// punches leave in their questions.
func formulaKey(f logic.Formula) string {
	if f == nil {
		return ""
	}
	return logic.Key(f)
}

// Stats counts database traffic.
type Stats struct {
	Added     int64
	YesHits   int64
	NoHits    int64
	Misses    int64
	DupesSkip int64
	// MemoHits counts answers served from the bounded question memo
	// without re-running any solver check.
	MemoHits int64
}

// memoBound caps the per-procedure question memo; when exceeded the memo
// is reset rather than evicted entry by entry (resets are rare and the
// memo is purely a cache).
const memoBound = 4096

// memoEntry records a previously computed answer for one question under
// one rule. Positive answers stay valid forever (summaries are never
// removed); a negative answer is valid only while the procedure still
// holds exactly the n summaries its scan covered.
type memoEntry struct {
	sum Summary
	ok  bool
	n   int // len(sums) the scan covered (misses only)
}

// procEntry holds one procedure's summaries: an append-only slice (the
// hot read path iterates a stable prefix without copying), the dedup key
// set, and a bounded memo of answered questions, all under mu.
type procEntry struct {
	mu   sync.Mutex
	keys map[pairKey]struct{}
	sums []Summary // append-only; elements are never mutated in place
	memo map[pairKey]memoEntry
}

// pairKey identifies a summary within a run — its kind and the interned
// ids of Pre and Post — or a question answered under a rule.
type pairKey struct {
	tag       byte
	pre, post logic.ID
}

// view returns the current stable prefix of the append-only summary
// slice. The returned header may be iterated without holding any lock:
// appends may reallocate the backing array, but never mutate elements
// already visible through this header.
func (pe *procEntry) view() []Summary {
	pe.mu.Lock()
	v := pe.sums
	pe.mu.Unlock()
	return v
}

// recall looks up a memoized answer and returns it together with the
// summary prefix a scan would read, both taken in one critical section.
// A hit is returned only when still valid: positive entries always,
// negative entries only while len(sums) equals the count they scanned.
func (pe *procEntry) recall(key pairKey) (memoEntry, bool, []Summary) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	e, ok := pe.memo[key]
	if ok && !e.ok && e.n != len(pe.sums) {
		delete(pe.memo, key) // stale miss: a summary arrived since
		ok = false
	}
	return e, ok, pe.sums
}

func (pe *procEntry) remember(key pairKey, e memoEntry) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.memo == nil || len(pe.memo) >= memoBound {
		pe.memo = make(map[pairKey]memoEntry)
	}
	pe.memo[key] = e
}

// DB is the concurrent summary database SUMDB: one map of procedures
// under one lock, each procedure's entry under its own. All methods are
// safe for concurrent use; per the paper it is the only resource shared
// by the parallel instances of PUNCH.
type DB struct {
	mu    sync.RWMutex
	procs map[string]*procEntry
	// names lists the keys of procs in arrival order. It is only ever
	// appended to, so a caller may iterate a view Procs returned without
	// holding any lock.
	names  []string
	solver *smt.Solver
	// Traffic counters, atomics so that Count and StatsSnapshot read them
	// mid-run without a lock.
	added, dupes, yesHits, noHits, misses, memoHits atomic.Int64
}

// New returns an empty database using solver for the answering checks.
func New(solver *smt.Solver) *DB {
	return &DB{procs: map[string]*procEntry{}, solver: solver}
}

// lookup returns proc's entry, or nil when the procedure has no
// summaries yet.
func (db *DB) lookup(proc string) *procEntry {
	db.mu.RLock()
	pe := db.procs[proc]
	db.mu.RUnlock()
	return pe
}

// entry returns proc's entry, creating it on first use.
func (db *DB) entry(proc string) *procEntry {
	if pe := db.lookup(proc); pe != nil {
		return pe
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	pe := db.procs[proc]
	if pe == nil {
		pe = &procEntry{keys: map[pairKey]struct{}{}}
		db.procs[proc] = pe
		db.names = append(db.names, proc)
	}
	return pe
}

// Add stores a summary (deduplicated structurally). Adding lengthens the
// procedure's summary slice, which invalidates memoized "no answer"
// results for that procedure.
func (db *DB) Add(s Summary) {
	key := pairKey{byte(s.Kind), logic.KeyID(s.Pre), logic.KeyID(s.Post)}
	pe := db.entry(s.Proc)
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if _, dup := pe.keys[key]; dup {
		db.dupes.Add(1)
		return
	}
	pe.keys[key] = struct{}{}
	pe.sums = append(pe.sums, s)
	db.added.Add(1)
}

// questionKey builds the memo key for q under the given answering rule.
func questionKey(rule byte, q Question) pairKey {
	return pairKey{rule, logic.KeyID(q.Pre), logic.KeyID(q.Post)}
}

// replay counts a memo hit and returns its answer.
func (db *DB) replay(e memoEntry, hits *atomic.Int64) (Summary, bool) {
	db.memoHits.Add(1)
	if e.ok {
		hits.Add(1)
		return e.sum, true
	}
	db.misses.Add(1)
	return Summary{}, false
}

// AnswerYes looks for a must summary (ψ1 ⇒must ψ2) answering q with "yes":
// ψ1 ⊆ q.Pre and q.Post ∩ ψ2 ≠ ∅ (§3.1). When found it returns the
// summary and a verified model of q.Post ∩ ψ2 (an exit state proven
// reachable).
func (db *DB) AnswerYes(q Question) (Summary, bool) {
	pe := db.lookup(q.Proc)
	if pe == nil {
		db.misses.Add(1)
		return Summary{}, false
	}
	key := questionKey('Y', q)
	e, hit, sums := pe.recall(key)
	if hit {
		return db.replay(e, &db.yesHits)
	}
	for _, s := range sums {
		if s.Kind != Must {
			continue
		}
		if !db.solver.Implies(s.Pre, q.Pre) {
			continue
		}
		inter := db.solver.Sat(logic.Conj(q.Post, s.Post))
		if inter.Known && inter.Sat {
			db.yesHits.Add(1)
			pe.remember(key, memoEntry{sum: s, ok: true})
			return s, true
		}
	}
	db.misses.Add(1)
	pe.remember(key, memoEntry{n: len(sums)})
	return Summary{}, false
}

// AnswerNo looks for a not-may summary (ψ1 ⇒¬may ψ2) answering q with
// "no": q.Pre ⊆ ψ1 and q.Post ⊆ ψ2 (§3.1).
func (db *DB) AnswerNo(q Question) (Summary, bool) {
	pe := db.lookup(q.Proc)
	if pe == nil {
		db.misses.Add(1)
		return Summary{}, false
	}
	key := questionKey('N', q)
	e, hit, sums := pe.recall(key)
	if hit {
		return db.replay(e, &db.noHits)
	}
	for _, s := range sums {
		if s.Kind != NotMay {
			continue
		}
		if db.solver.Implies(q.Pre, s.Pre) && db.solver.Implies(q.Post, s.Post) {
			db.noHits.Add(1)
			pe.remember(key, memoEntry{sum: s, ok: true})
			return s, true
		}
	}
	db.misses.Add(1)
	pe.remember(key, memoEntry{n: len(sums)})
	return Summary{}, false
}

// Answer tries both answering rules; verdict is +1 for yes, -1 for no,
// 0 for no answer.
func (db *DB) Answer(q Question) (Summary, int) {
	if s, ok := db.AnswerYes(q); ok {
		return s, +1
	}
	if s, ok := db.AnswerNo(q); ok {
		return s, -1
	}
	return Summary{}, 0
}

// ForProc returns the summaries stored for proc as a stable read-only
// view: callers may iterate it freely but must not mutate elements.
func (db *DB) ForProc(proc string) []Summary {
	pe := db.lookup(proc)
	if pe == nil {
		return nil
	}
	return pe.view()
}

// Count returns the number of stored summaries.
func (db *DB) Count() int { return int(db.added.Load()) }

// Procs returns the procedures that have summaries, in the order they
// arrived, as a stable read-only view: it costs no copy, a view returned
// before lists a prefix of one returned later, and a procedure added
// later is not in it.
func (db *DB) Procs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.names
}

// All returns every stored summary, sorted by procedure then insertion
// order, for reporting and testing.
func (db *DB) All() []Summary {
	procs := slices.Clone(db.Procs())
	slices.Sort(procs)
	var out []Summary
	for _, p := range procs {
		out = append(out, db.ForProc(p)...)
	}
	return out
}

// StatsSnapshot returns the traffic counters. Each is read atomically;
// mid-run they may be a few operations apart.
func (db *DB) StatsSnapshot() Stats {
	return Stats{
		Added:     db.added.Load(),
		YesHits:   db.yesHits.Load(),
		NoHits:    db.noHits.Load(),
		Misses:    db.misses.Load(),
		DupesSkip: db.dupes.Load(),
		MemoHits:  db.memoHits.Load(),
	}
}

// Solver exposes the database's solver so analyses share one instance (and
// its tick counter) per engine run.
func (db *DB) Solver() *smt.Solver { return db.solver }
