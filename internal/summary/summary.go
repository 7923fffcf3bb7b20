// Package summary implements the two summary kinds of §3.1 — must
// summaries and not-may summaries — and SUMDB, the concurrent summary
// database that is the only state shared between parallel PUNCH instances
// (Fig. 1 of the paper).
package summary

import (
	"fmt"
	"hash/fnv"
	"sort"
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
	// PerShard breaks the answering traffic down by lock stripe (only
	// shards with any traffic or content appear) — the load-balance
	// view the striping exists for.
	PerShard []ShardTraffic
}

// ShardTraffic is one lock stripe's answering traffic and content.
type ShardTraffic struct {
	Shard     int
	Procs     int
	Summaries int
	YesHits   int64
	NoHits    int64
	Misses    int64
	MemoHits  int64
}

// numShards stripes the procedure map so concurrent PUNCH instances
// working on different procedures never contend on one lock.
const numShards = 32

// memoBound caps the per-procedure question memo; when exceeded the memo
// is reset rather than evicted entry by entry (resets are rare and the
// memo is purely a cache).
const memoBound = 4096

// memoEntry records a previously computed answer for one question under
// one rule. Positive answers stay valid forever (summaries are never
// removed); negative answers are valid only while the procedure's
// summary set is unchanged (version matches).
type memoEntry struct {
	sum     Summary
	ok      bool
	version uint64 // procShard.version at computation time (misses only)
}

// procShard holds one procedure's summaries: an append-only slice (the
// hot read path iterates a stable prefix without copying), the dedup key
// set, and a bounded memo of answered questions.
type procShard struct {
	mu      sync.RWMutex
	keys    map[pairKey]struct{}
	sums    []Summary // append-only; elements are never mutated in place
	version uint64    // bumped on every successful Add
	added   int64     // guarded by mu
	dupes   int64     // guarded by mu

	memoMu sync.Mutex
	memo   map[pairKey]memoEntry
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
func (ps *procShard) view() []Summary {
	ps.mu.RLock()
	v := ps.sums
	ps.mu.RUnlock()
	return v
}

func (ps *procShard) currentVersion() uint64 {
	ps.mu.RLock()
	v := ps.version
	ps.mu.RUnlock()
	return v
}

// memoGet looks up a memoized answer. A hit is returned only when still
// valid: positive entries always, negative entries only at the recorded
// summary-set version.
func (ps *procShard) memoGet(key pairKey, version uint64) (memoEntry, bool) {
	ps.memoMu.Lock()
	defer ps.memoMu.Unlock()
	e, ok := ps.memo[key]
	if !ok {
		return memoEntry{}, false
	}
	if !e.ok && e.version != version {
		delete(ps.memo, key) // stale miss: a summary arrived since
		return memoEntry{}, false
	}
	return e, true
}

func (ps *procShard) memoPut(key pairKey, e memoEntry) {
	ps.memoMu.Lock()
	defer ps.memoMu.Unlock()
	if ps.memo == nil || len(ps.memo) >= memoBound {
		ps.memo = make(map[pairKey]memoEntry)
	}
	ps.memo[key] = e
}

// shard is one stripe of the procedure map.
type shard struct {
	mu    sync.RWMutex
	procs map[string]*procShard
}

// shardCounters are one stripe's read-path counters (atomics: the
// answer paths hold no exclusive lock).
type shardCounters struct {
	yes, no, miss, memo int64
}

// DB is the concurrent summary database SUMDB, sharded by procedure. All
// methods are safe for concurrent use; per the paper it is the only
// resource shared by the parallel instances of PUNCH.
type DB struct {
	shards [numShards]shard
	solver *smt.Solver
	// Global read-path counters (atomics: the read paths hold no
	// exclusive lock). Added/DupesSkip live per procShard under its
	// write lock and are summed by StatsSnapshot. traffic carries the
	// same read-path counts broken down by lock stripe.
	yesHits  int64
	noHits   int64
	misses   int64
	memoHits int64
	traffic  [numShards]shardCounters
}

// New returns an empty database using solver for the answering checks.
func New(solver *smt.Solver) *DB {
	db := &DB{solver: solver}
	for i := range db.shards {
		db.shards[i].procs = map[string]*procShard{}
	}
	return db
}

func shardIndex(proc string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(proc))
	return int(h.Sum32() % numShards)
}

// lookup returns proc's shard entry, or nil when the procedure has no
// summaries yet.
func (db *DB) lookup(proc string) *procShard {
	return db.lookupAt(shardIndex(proc), proc)
}

// lookupAt is lookup with the stripe index already computed (the answer
// paths reuse it for the per-shard traffic counters).
func (db *DB) lookupAt(si int, proc string) *procShard {
	sh := &db.shards[si]
	sh.mu.RLock()
	ps := sh.procs[proc]
	sh.mu.RUnlock()
	return ps
}

// countMiss, countMemo, countYes and countNo bump a global read-path
// counter together with its stripe-local twin.
func (db *DB) countMiss(si int) {
	atomic.AddInt64(&db.misses, 1)
	atomic.AddInt64(&db.traffic[si].miss, 1)
}

func (db *DB) countMemo(si int) {
	atomic.AddInt64(&db.memoHits, 1)
	atomic.AddInt64(&db.traffic[si].memo, 1)
}

func (db *DB) countYes(si int) {
	atomic.AddInt64(&db.yesHits, 1)
	atomic.AddInt64(&db.traffic[si].yes, 1)
}

func (db *DB) countNo(si int) {
	atomic.AddInt64(&db.noHits, 1)
	atomic.AddInt64(&db.traffic[si].no, 1)
}

// entry returns proc's shard entry, creating it on first use.
func (db *DB) entry(proc string) *procShard {
	if ps := db.lookup(proc); ps != nil {
		return ps
	}
	sh := &db.shards[shardIndex(proc)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps := sh.procs[proc]
	if ps == nil {
		ps = &procShard{keys: map[pairKey]struct{}{}}
		sh.procs[proc] = ps
	}
	return ps
}

// Add stores a summary (deduplicated structurally). Adding bumps the
// procedure's version, which invalidates memoized "no answer" results
// for that procedure.
func (db *DB) Add(s Summary) {
	key := pairKey{byte(s.Kind), logic.KeyID(s.Pre), logic.KeyID(s.Post)}
	ps := db.entry(s.Proc)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.keys[key]; dup {
		ps.dupes++
		return
	}
	ps.keys[key] = struct{}{}
	ps.sums = append(ps.sums, s)
	ps.version++
	ps.added++
}

// questionKey builds the memo key for q under the given answering rule.
func questionKey(rule byte, q Question) pairKey {
	return pairKey{rule, logic.KeyID(q.Pre), logic.KeyID(q.Post)}
}

// AnswerYes looks for a must summary (ψ1 ⇒must ψ2) answering q with "yes":
// ψ1 ⊆ q.Pre and q.Post ∩ ψ2 ≠ ∅ (§3.1). When found it returns the
// summary and a verified model of q.Post ∩ ψ2 (an exit state proven
// reachable).
func (db *DB) AnswerYes(q Question) (Summary, bool) {
	si := shardIndex(q.Proc)
	ps := db.lookupAt(si, q.Proc)
	if ps == nil {
		db.countMiss(si)
		return Summary{}, false
	}
	version := ps.currentVersion()
	key := questionKey('Y', q)
	if e, hit := ps.memoGet(key, version); hit {
		db.countMemo(si)
		if e.ok {
			db.countYes(si)
			return e.sum, true
		}
		db.countMiss(si)
		return Summary{}, false
	}
	for _, s := range ps.view() {
		if s.Kind != Must {
			continue
		}
		if !db.solver.Implies(s.Pre, q.Pre) {
			continue
		}
		inter := db.solver.Sat(logic.Conj(q.Post, s.Post))
		if inter.Known && inter.Sat {
			db.countYes(si)
			ps.memoPut(key, memoEntry{sum: s, ok: true})
			return s, true
		}
	}
	db.countMiss(si)
	ps.memoPut(key, memoEntry{version: version})
	return Summary{}, false
}

// AnswerNo looks for a not-may summary (ψ1 ⇒¬may ψ2) answering q with
// "no": q.Pre ⊆ ψ1 and q.Post ⊆ ψ2 (§3.1).
func (db *DB) AnswerNo(q Question) (Summary, bool) {
	si := shardIndex(q.Proc)
	ps := db.lookupAt(si, q.Proc)
	if ps == nil {
		db.countMiss(si)
		return Summary{}, false
	}
	version := ps.currentVersion()
	key := questionKey('N', q)
	if e, hit := ps.memoGet(key, version); hit {
		db.countMemo(si)
		if e.ok {
			db.countNo(si)
			return e.sum, true
		}
		db.countMiss(si)
		return Summary{}, false
	}
	for _, s := range ps.view() {
		if s.Kind != NotMay {
			continue
		}
		if db.solver.Implies(q.Pre, s.Pre) && db.solver.Implies(q.Post, s.Post) {
			db.countNo(si)
			ps.memoPut(key, memoEntry{sum: s, ok: true})
			return s, true
		}
	}
	db.countMiss(si)
	ps.memoPut(key, memoEntry{version: version})
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
	ps := db.lookup(proc)
	if ps == nil {
		return nil
	}
	return ps.view()
}

// Count returns the number of stored summaries.
func (db *DB) Count() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, ps := range sh.procs {
			n += len(ps.view())
		}
		sh.mu.RUnlock()
	}
	return n
}

// All returns every stored summary, sorted by procedure then insertion
// order, for reporting and testing.
func (db *DB) All() []Summary {
	byProc := map[string][]Summary{}
	procs := []string{}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for p, ps := range sh.procs {
			if v := ps.view(); len(v) > 0 {
				byProc[p] = v
				procs = append(procs, p)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(procs)
	var out []Summary
	for _, p := range procs {
		out = append(out, byProc[p]...)
	}
	return out
}

// StatsSnapshot returns a consistent copy of the traffic counters:
// read-path counters from their atomics, write-path counters summed
// across the procedure shards.
func (db *DB) StatsSnapshot() Stats {
	st := Stats{
		YesHits:  atomic.LoadInt64(&db.yesHits),
		NoHits:   atomic.LoadInt64(&db.noHits),
		Misses:   atomic.LoadInt64(&db.misses),
		MemoHits: atomic.LoadInt64(&db.memoHits),
	}
	for i := range db.shards {
		sh := &db.shards[i]
		tr := ShardTraffic{
			Shard:    i,
			YesHits:  atomic.LoadInt64(&db.traffic[i].yes),
			NoHits:   atomic.LoadInt64(&db.traffic[i].no),
			Misses:   atomic.LoadInt64(&db.traffic[i].miss),
			MemoHits: atomic.LoadInt64(&db.traffic[i].memo),
		}
		sh.mu.RLock()
		for _, ps := range sh.procs {
			ps.mu.RLock()
			st.Added += ps.added
			st.DupesSkip += ps.dupes
			tr.Procs++
			tr.Summaries += len(ps.sums)
			ps.mu.RUnlock()
		}
		sh.mu.RUnlock()
		if tr.Procs > 0 || tr.YesHits+tr.NoHits+tr.Misses+tr.MemoHits > 0 {
			st.PerShard = append(st.PerShard, tr)
		}
	}
	return st
}

// Solver exposes the database's solver so analyses share one instance (and
// its tick counter) per engine run.
func (db *DB) Solver() *smt.Solver { return db.solver }
