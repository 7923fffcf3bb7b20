package smt

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// memoStripeBits is log2 of the number of stripes a memo's writers are
// spread over, so that concurrent PUNCH instances rarely contend on one
// lock. A stripe allocates its table at its first put: a one-millisecond
// corpus check touches few of them.
const (
	memoStripeBits = 4
	memoStripes    = 1 << memoStripeBits
	// minMemoSlots is a stripe table's first slot count (a power of two).
	minMemoSlots = 16
)

// A memo is keyed on one interned id (key1) or on two (key2), together
// with a 32-bit tag (the statement of a one-step check, 0 elsewhere). Ids
// are canonical within their generation of the intern table and never
// equal an id of another, so a probe builds no string and boxes nothing.
type memoKey interface {
	comparable
	hash() uint64
}

type (
	key1 logic.ID
	key2 [2]logic.ID
)

func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>29
}

func (k key1) hash() uint64 { return mix64(uint64(k)) }
func (k key2) hash() uint64 { return mix64(uint64(k[0]) ^ mix64(uint64(k[1]))) }

// A slot's word is 0 while the slot is empty. A put writes the key first
// and then publishes the word with one atomic store; a reader loads the
// word, and only a published word makes it read the key. The word packs:
//
//	bit 0       published
//	bit 1       the slot has a value out of line, at index
//	bits 2-7    the caller's bits (a verdict)
//	bits 8-31   index into the table's out-of-line values
//	bits 32-63  the tag
const (
	wordPublished = 1
	wordOut       = 2
	wordBitsShift = 2
	wordBitsMask  = 1<<6 - 1
	wordOutShift  = 8
)

// memoSlot holds no pointer: the collector never scans a slot array.
type memoSlot[K memoKey] struct {
	word atomic.Uint64
	key  K
}

// memoTable is one stripe's open-addressed table. out holds the values
// too large for a word (a model, a formula), by index; its length is the
// most the table holds before it grows, so it is written in place and
// its header never changes while readers index it.
type memoTable[K memoKey, X any] struct {
	slots []memoSlot[K] // len is a power of two
	out   []X
}

type memoStripe[K memoKey, X any] struct {
	mu   sync.Mutex // writers only
	tab  atomic.Pointer[memoTable[K, X]]
	used int // slots published, under mu
	outs int // out values written, under mu
}

// memo is one of a solver's result tables, bounded without eviction:
// once max results are in, new ones are turned away, so a result that was
// kept stays for the solver's lifetime and a lookup never depends on what
// else was asked in between. Every memoized function is a pure function
// of its key, so a hit, a miss and a turned-away result all give the same
// answer; only the work differs. A solver belongs to one run, and its
// memos die with it.
//
// Reads take no lock. A slot is never written again once published, and
// a stripe grows by copying its table into one twice the size and
// swapping the pointer: a reader still probing the old table finds every
// result that was there, and misses only what was put after the swap.
type memo[K memoKey, X any] struct {
	max     int64
	n       atomic.Int64 // results kept
	turned  atomic.Int64 // results turned away at max
	stripes [memoStripes]memoStripe[K, X]
}

func memoHash[K memoKey](tag uint32, k K) uint64 {
	return k.hash() ^ mix64(uint64(tag)+1)
}

// get returns the bits and the out-of-line value (the zero X when there
// is none) kept under (tag, k).
func (c *memo[K, X]) get(tag uint32, k K) (bits uint32, x X, ok bool) {
	h := memoHash(tag, k)
	t := c.stripes[h>>(64-memoStripeBits)].tab.Load()
	if t == nil {
		return 0, x, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		w := s.word.Load()
		if w == 0 {
			return 0, x, false
		}
		if uint32(w>>32) == tag && s.key == k {
			if w&wordOut != 0 {
				x = t.out[uint32(w)>>wordOutShift]
			}
			return uint32(w) >> wordBitsShift & wordBitsMask, x, true
		}
	}
}

// find returns the slot of t that holds (tag, k), or the empty slot
// where it belongs.
func (t *memoTable[K, X]) find(h uint64, tag uint32, k K) *memoSlot[K] {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		w := s.word.Load()
		if w == 0 || uint32(w>>32) == tag && s.key == k {
			return s
		}
	}
}

// put keeps bits, and x when hasX is set, under (tag, k) unless the memo
// is full. A key is counted when it is inserted, under its stripe's lock:
// two workers that missed on the same key count it once, and the bound is
// reserved before the insert, so it holds exactly under any interleaving.
func (c *memo[K, X]) put(tag uint32, k K, bits uint32, x X, hasX bool) {
	h := memoHash(tag, k)
	st := &c.stripes[h>>(64-memoStripeBits)]
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.tab.Load()
	if t != nil && t.find(h, tag, k).word.Load() != 0 {
		return
	}
	if c.n.Add(1) > c.max {
		c.n.Add(-1)
		c.turned.Add(1)
		return
	}
	if t == nil || (st.used+1)*4 > len(t.slots)*3 {
		t = st.grow(t)
	}
	w := uint64(tag)<<32 | uint64(bits&wordBitsMask)<<wordBitsShift | wordPublished
	if hasX {
		t.out[st.outs] = x
		w |= uint64(st.outs)<<wordOutShift | wordOut
		st.outs++
	}
	s := t.find(h, tag, k)
	s.key = k
	s.word.Store(w)
	st.used++
}

// grow publishes a table twice the size of t (or the first one) holding
// what t holds; the caller holds st.mu.
func (st *memoStripe[K, X]) grow(t *memoTable[K, X]) *memoTable[K, X] {
	n := minMemoSlots
	if t != nil {
		n = 2 * len(t.slots)
	}
	nt := &memoTable[K, X]{slots: make([]memoSlot[K], n), out: make([]X, n*3/4)}
	if t != nil {
		copy(nt.out, t.out[:st.outs])
		for i := range t.slots {
			s := &t.slots[i]
			if w := s.word.Load(); w != 0 {
				d := nt.find(memoHash(uint32(w>>32), s.key), uint32(w>>32), s.key)
				d.key = s.key
				d.word.Store(w)
			}
		}
	}
	st.tab.Store(nt)
	return nt
}

// MemoStats is the fill of one memo: how many results it holds, how many
// it may hold, and how many it turned away because it was full.
type MemoStats struct {
	Entries, Capacity, TurnedAway int64
}

func (c *memo[K, X]) stats() MemoStats {
	return MemoStats{Entries: c.n.Load(), Capacity: c.max, TurnedAway: c.turned.Load()}
}
