package smt

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// memoStripes is the number of locks a memo is striped over, so that
// concurrent PUNCH instances rarely contend on one. Every stripe a run
// touches costs it a map: at 64, the five memos of a one-millisecond
// corpus check allocated 320 of them and the check took 10–40 % longer.
const memoStripes = 16

// idKey keys a memo on up to three interned ids (unused ones zero). Ids
// are canonical within their generation of the intern table and never
// equal an id of another, so a probe builds no string and boxes nothing.
type idKey struct{ a, b, c logic.ID }

func (k idKey) stripe() uint32 {
	h := (uint64(k.a)*0x9e3779b97f4a7c15 ^ uint64(k.b)) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(k.c)) * 0x9e3779b97f4a7c15
	return uint32(h >> 33)
}

// memo is one of a solver's result tables: striped, and bounded without
// eviction — once max results are in, new ones are turned away, so a
// result that was kept stays for the solver's lifetime and a lookup never
// depends on what else was asked in between. Every memoized function is a
// pure function of its key, so a hit, a miss and a turned-away result all
// give the same answer; only the work differs. A solver belongs to one
// run, and its memos die with it.
type memo[V any] struct {
	max    int64
	n      atomic.Int64 // results kept
	turned atomic.Int64 // results turned away at max
	shards [memoStripes]struct {
		mu sync.RWMutex
		m  map[idKey]V
	}
}

func (c *memo[V]) get(k idKey) (V, bool) {
	sh := &c.shards[k.stripe()%memoStripes]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

// put keeps v under k unless the memo is full. A key is counted when it
// is inserted, under its stripe's lock: two workers that missed on the
// same key count it once, and the bound is reserved before the insert, so
// it holds exactly under any interleaving.
func (c *memo[V]) put(k idKey, v V) {
	sh := &c.shards[k.stripe()%memoStripes]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[k]; dup {
		return
	}
	if c.n.Add(1) > c.max {
		c.n.Add(-1)
		c.turned.Add(1)
		return
	}
	if sh.m == nil {
		sh.m = make(map[idKey]V)
	}
	sh.m[k] = v
}

// MemoStats is the fill of one memo: how many results it holds, how many
// it may hold, and how many it turned away because it was full.
type MemoStats struct {
	Entries, Capacity, TurnedAway int64
}

func (c *memo[V]) stats() MemoStats {
	return MemoStats{Entries: c.n.Load(), Capacity: c.max, TurnedAway: c.turned.Load()}
}
