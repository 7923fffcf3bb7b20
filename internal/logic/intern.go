// Hash-consing: a process-global, sharded intern table that owns the
// canonical copy of every linear term and formula node. Structurally
// equal values always resolve to the same node and the same id, so the id
// doubles as a canonical map key — logic.Key, the solver's memos, the
// SUMDB answer memo and the DPLL skeleton's atom interning are integer
// operations — and building a structure that already exists returns the
// existing node without allocating.
//
// Lifetime: the table lives as long as a run. BeginRun and EndRun count
// the runs in progress; the EndRun of the last one drops every entry in
// place (the slot arrays and map buckets stay for the next run) and
// starts a new generation. An id carries the generation that issued it in
// its high 32 bits, so ids of two generations never compare equal, and a
// node of a dropped generation counts as not interned: canonical
// re-interns it when it is next used, as it does a literal-built node. A
// formula that outlives its run — in a store, in a run's result, in a
// question built before the run began — therefore stays safe to use.
//
// Invariant: interned values are immutable and shared. The Fs of an
// interned And/Or is the one array every holder of that node sees; it is
// never written or appended to in place (its capacity equals its length,
// so an append always copies). Ids are assigned in first-intern order:
// they carry no meaning outside their generation, which is fine because
// every consumer uses them only as identity.
package logic

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// ID identifies an interned term or formula node: the generation that
// issued it in the high 32 bits, a counter in the low 32. The zero ID is
// a literal-built node's: not interned.
type ID uint64

// Reserved ids for the constant formulas, live in every generation.
const (
	idFalse ID = 1
	idTrue  ID = 2
)

const (
	// internShards stripes the table so concurrent PUNCH instances
	// rarely contend on the same lock.
	internShards = 64
	// nodeShardShift takes a node's shard from the top bits of its hash;
	// the slot inside the shard comes from the low bits. The two must
	// not overlap: entries that agree on the shard bits would otherwise
	// agree on that many slot bits too and pile onto 1/64 of the slots.
	nodeShardShift = 64 - 6
	// minNodeSlots is a shard's initial slot count (a power of two).
	minNodeSlots = 256
	// Node tags distinguishing the interned kinds in one namespace.
	tagAtom = byte('a')
	tagEq   = byte('e')
	tagAnd  = byte('A')
	tagOr   = byte('O')
)

type linEntry struct {
	l  Lin
	id ID
}

// internShard is one stripe: a map of terms and an open-addressed table
// of formula nodes. A node slot holds the canonical Formula itself (nil
// when empty), probed linearly from hash&mask. A slot's hash is not
// stored: growth recomputes it from the node's tag and its children's
// ids (an atom's one child is its term id).
type internShard struct {
	mu    sync.RWMutex
	lins  map[uint64][]linEntry
	nodes []Formula // len is a power of two
	used  int       // occupied slots of nodes
	// fill/64 is the load at which nodes doubles. It differs from shard
	// to shard: the shards fill at the same rate, and with one common
	// threshold all 64 tables would double — and leave their old halves
	// behind as garbage — in the same instant.
	fill int
	// hits and misses count this shard's lookups; InternStats sums them.
	// Per shard, so workers do not all write one counter's cache line.
	hits, misses atomic.Int64
}

var internTab [internShards]internShard

var (
	// generation is the table's current generation (from 1); it changes
	// only while every shard is locked for writing.
	generation atomic.Uint32
	// internNext is the generation's last allocated counter (atomic).
	internNext uint64
	// liveRuns counts the runs between BeginRun and EndRun.
	liveMu   sync.Mutex
	liveRuns int
)

func init() {
	generation.Store(1)
	for i := range internTab {
		sh := &internTab[i]
		sh.lins = map[uint64][]linEntry{}
		sh.nodes = make([]Formula, minNodeSlots)
		sh.fill = 24 + i*3/8 // 3/8 … 47/64
	}
}

// BeginRun marks a run in progress: the table is not dropped until it
// ends.
func BeginRun() {
	liveMu.Lock()
	liveRuns++
	liveMu.Unlock()
}

// EndRun marks a run ended. The last run in progress drops the table.
func EndRun() {
	liveMu.Lock()
	defer liveMu.Unlock()
	if liveRuns--; liveRuns == 0 {
		dropTable()
	}
}

// dropTable empties every shard in place and starts a new generation. A
// shard the generation left empty is not cleared: its slot array keeps the
// size of the largest run so far, and a run that interned almost nothing
// would otherwise pay to clear it.
func dropTable() {
	for i := range internTab {
		internTab[i].mu.Lock()
	}
	generation.Add(1)
	atomic.StoreUint64(&internNext, 0)
	for i := range internTab {
		sh := &internTab[i]
		if sh.used != 0 || len(sh.lins) != 0 {
			clear(sh.lins)
			clear(sh.nodes)
			sh.used = 0
		}
		sh.mu.Unlock()
	}
}

// live reports whether id was issued by the current generation (or is a
// constant's): false for a literal-built node and for one whose
// generation was dropped.
func live(id ID) bool {
	return id>>32 == ID(generation.Load()) || id == idFalse || id == idTrue
}

// InternStats reports the table's hit/miss counters, cumulative over
// every generation: a hit is an intern request answered by an existing
// entry, a miss is a fresh insertion.
func InternStats() (hits, misses int64) {
	for i := range internTab {
		hits += internTab[i].hits.Load()
		misses += internTab[i].misses.Load()
	}
	return hits, misses
}

// allocID returns a fresh id of the current generation. The caller holds
// a shard lock, so the generation cannot change under it. Issued ids
// start at 3: 1 and 2 are False's and True's. A run would need hundreds of
// gigabytes of nodes to exhaust its generation's 32-bit counter.
func allocID() ID {
	return ID(generation.Load())<<32 | ID(atomic.AddUint64(&internNext, 1)+2)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, 0xff) // terminator so "ab","c" ≠ "a","bc"
}

func hashLin(l Lin) uint64 {
	h := mix(uint64(fnvOffset), uint64(l.K))
	for i, v := range l.Vars {
		h = mixString(h, string(v))
		h = mix(h, uint64(l.Coefs[i]))
	}
	return h
}

// LinID interns the canonical linear term l and returns its id. The table
// keeps a copy of l, never l itself.
func LinID(l Lin) ID {
	_, id := internLin(l)
	return id
}

// internLin is LinID returning the table's copy of l too.
func internLin(l Lin) (Lin, ID) {
	h := hashLin(l)
	sh := &internTab[h%internShards]
	sh.mu.RLock()
	for _, e := range sh.lins[h] {
		if e.l.Equal(l) {
			sh.mu.RUnlock()
			sh.hits.Add(1)
			return e.l, e.id
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	for _, e := range sh.lins[h] {
		if e.l.Equal(l) {
			sh.mu.Unlock()
			sh.hits.Add(1)
			return e.l, e.id
		}
	}
	own := l.clone()
	id := allocID()
	sh.lins[h] = append(sh.lins[h], linEntry{l: own, id: id})
	sh.mu.Unlock()
	sh.misses.Add(1)
	return own, id
}

// idOf returns the id f carries: the reserved ids for the constants, the
// stored id of a node (0 for a literal-built one, a dropped generation's
// for a node that outlived its run).
func idOf(f Formula) ID {
	switch f := f.(type) {
	case Bool:
		if bool(f) {
			return idTrue
		}
		return idFalse
	case Atom:
		return f.id
	case And:
		return f.id
	case Or:
		return f.id
	default:
		return 0
	}
}

// hashNode is the hash of the node with this tag and these child ids: FNV
// over tag, ids and their count, then an avalanche so that the top bits
// (shard) and the low bits (slot) each depend on every input bit.
func hashNode(tag byte, ids []ID) uint64 {
	h := mix(uint64(fnvOffset), uint64(tag))
	for _, k := range ids {
		h = mix(h, uint64(k))
	}
	h = mix(h, uint64(len(ids)))
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// kidsOf returns the tag and the children of an And or Or, and tag 0 for
// any other formula.
func kidsOf(f Formula) (tag byte, fs []Formula) {
	switch f := f.(type) {
	case And:
		return tagAnd, f.Fs
	case Or:
		return tagOr, f.Fs
	}
	return 0, nil
}

// hashOf is hashNode of a stored node, for growth to re-place it by.
func hashOf(f Formula) uint64 {
	var idBuf [nodeScratch]ID
	ids := idBuf[:0]
	if a, ok := f.(Atom); ok {
		return hashNode(atomTag(a.Eq), append(ids, a.termID()))
	}
	tag, fs := kidsOf(f)
	for _, g := range fs {
		ids = append(ids, idOf(g))
	}
	return hashNode(tag, ids)
}

func atomTag(eq bool) byte {
	if eq {
		return tagEq
	}
	return tagAtom
}

// nodeIs reports whether the stored node f is the node with this tag and
// these child ids.
func nodeIs(f Formula, tag byte, ids []ID) bool {
	var fs []Formula
	switch f := f.(type) {
	case Atom:
		return tag == atomTag(f.Eq) && f.termID() == ids[0]
	case And:
		if tag != tagAnd {
			return false
		}
		fs = f.Fs
	case Or:
		if tag != tagOr {
			return false
		}
		fs = f.Fs
	}
	if len(fs) != len(ids) {
		return false
	}
	for i, g := range fs {
		if idOf(g) != ids[i] {
			return false
		}
	}
	return true
}

// find probes for the node (tag, ids) whose hash is h; nil when absent.
// The caller holds sh.mu.
func (sh *internShard) find(h uint64, tag byte, ids []ID) Formula {
	mask := uint64(len(sh.nodes) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		f := sh.nodes[i]
		if f == nil || nodeIs(f, tag, ids) {
			return f
		}
	}
}

// insert stores f, whose hash is h and which find did not find, doubling
// the table first when it has reached its fill. The caller holds sh.mu
// for writing.
func (sh *internShard) insert(h uint64, f Formula) {
	if sh.used*64 >= len(sh.nodes)*sh.fill {
		old := sh.nodes
		sh.nodes = make([]Formula, 2*len(old))
		for _, g := range old {
			if g != nil {
				sh.place(hashOf(g), g)
			}
		}
	}
	sh.place(h, f)
	sh.used++
}

func (sh *internShard) place(h uint64, f Formula) {
	mask := uint64(len(sh.nodes) - 1)
	i := h & mask
	for sh.nodes[i] != nil {
		i = (i + 1) & mask
	}
	sh.nodes[i] = f
}

// intern is the one way into the node table: it returns the canonical
// node with the given tag and child ids, creating it on a miss. A hit
// allocates nothing. For an And/Or, ids are the ids of fs and a miss
// copies fs, so the caller's slice is never retained; for an atom, ids is
// the one id of the term l, and l is the table's copy of it. It returns
// nil when a child id is not live — the table was dropped since the
// caller interned that child — and the caller interns the children again.
func intern(tag byte, ids []ID, fs []Formula, l Lin) Formula {
	h := hashNode(tag, ids)
	sh := &internTab[h>>nodeShardShift]
	if f := sh.lookup(h, tag, ids); f != nil {
		return f
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := sh.find(h, tag, ids)
	if f != nil {
		sh.hits.Add(1)
		return f
	}
	for _, k := range ids {
		if !live(k) {
			return nil
		}
	}
	id := allocID()
	if tag == tagAnd || tag == tagOr {
		// make, not append: capacity must equal length, so that no
		// holder's append can ever write into the shared array.
		own := make([]Formula, len(fs))
		copy(own, fs)
		if tag == tagAnd {
			f = And{Fs: own, id: id}
		} else {
			f = Or{Fs: own, id: id}
		}
	} else {
		f = Atom{L: l, Eq: tag == tagEq, id: id, lid: uint32(ids[0])}
	}
	sh.insert(h, f)
	sh.misses.Add(1)
	return f
}

// lookup is intern's hit path: the stored node with this tag and these
// child ids, whose hash is h, or nil.
func (sh *internShard) lookup(h uint64, tag byte, ids []ID) Formula {
	sh.mu.RLock()
	f := sh.find(h, tag, ids)
	sh.mu.RUnlock()
	if f != nil {
		sh.hits.Add(1)
	}
	return f
}

// internAtom returns the canonical atom (l ≤ 0) or (l = 0). The atom
// holds the table's copy of l, so l may live in memory its owner reuses.
func internAtom(l Lin, eq bool) Formula {
	for {
		own, lid := internLin(l)
		ids := [1]ID{lid}
		if f := intern(atomTag(eq), ids[:], nil, own); f != nil {
			return f
		}
	}
}

// canonical returns the interned node structurally equal to f: f itself
// when it carries a live id, otherwise the node internLiteral finds or
// makes.
func canonical(f Formula) Formula {
	if live(idOf(f)) {
		return f
	}
	return internLiteral(f)
}

// internLiteral interns a node written as a literal (or one whose
// generation was dropped), children first — as written, without the
// flattening and folding Conj and Disj do, because the id is an identity
// of structure.
func internLiteral(f Formula) Formula {
	if a, ok := f.(Atom); ok {
		return internAtom(a.L, a.Eq)
	}
	tag, fs := kidsOf(f)
	if tag == 0 {
		return f
	}
	var kidBuf [nodeScratch]Formula
	var idBuf [nodeScratch]ID
	for {
		kids, ids := kidBuf[:0], idBuf[:0]
		for _, g := range fs {
			g = canonical(g)
			kids, ids = append(kids, g), append(ids, idOf(g))
		}
		if g := intern(tag, ids, kids, Lin{}); g != nil {
			return g
		}
	}
}

// KeyID returns the structural identity of f as an interned id of the
// current generation. Nodes built by the package constructors carry their
// id; literal-built nodes and those of a dropped generation are interned
// lazily here.
func KeyID(f Formula) ID {
	return idOf(canonical(f))
}

// Key returns a canonical string for f, usable as a map key for
// deduplication within a run: "#<id>". Logically equal formulas may have
// different keys; the key is only required to be injective on structure.
func Key(f Formula) string {
	return "#" + strconv.FormatUint(uint64(KeyID(f)), 10)
}
