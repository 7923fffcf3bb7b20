// Package store implements the persistent summary store behind the
// engines' warm-start and incremental re-check paths: one Store
// interface with two backends, a map of summaries in memory (Mem) and
// an append-only, fingerprinted record log on disk (Disk).
//
// Everything a store holds went through internal/wire, so its contents
// are canonical cross-process bytes — never the process-local
// "#<intern-id>" keys the in-memory hot path uses. A disk store is
// bound to a fingerprint of the corpus/driver it was built from; a
// store whose fingerprint does not match is rejected with a
// *MismatchError, never silently reused.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/summary"
	"repro/internal/wire"
)

// Store is a persistent (or shareable) collection of summaries, the
// provenance of the verdicts computed over them, and the manifest of
// the program they were computed from. All methods are safe for
// concurrent use.
//
// The crash model is a process crash, not a power loss. A process that
// dies at any point leaves a disk store that opens to the state after
// some prefix of the records put. Disk.rewrite, the compaction an open
// may make, fsyncs neither its tmp file before the rename nor the
// directory after it, so after a power loss or kernel crash that
// followed a compaction the log may be empty, torn, or the one from
// before the compaction, and Flush's fsync covers the log file only. No
// fsync is added: an edit session reopens the store after every edit.
type Store interface {
	// Load returns every stored summary. The engines feed the result
	// into a fresh SUMDB before the first MAP stage (warm start).
	Load() ([]summary.Summary, error)
	// Put persists one summary, deduplicated by canonical wire key;
	// added reports whether the summary was new to the store.
	Put(s summary.Summary) (added bool, err error)
	// DeleteProcs discards every summary of the given procedures, in the
	// order given; nil or empty means all of them (a re-check with no
	// manifest to diff against). It returns the number removed per
	// procedure, which the distributed engine routes to the owning nodes.
	DeleteProcs(procs []string) (map[string]int, error)
	// Count returns the number of stored summaries.
	Count() int
	// PutProv persists one verdict's provenance record.
	PutProv(rec wire.ProvRecord) error
	// LoadProv returns every stored provenance record, oldest first.
	LoadProv() ([]wire.ProvRecord, error)
	// PutManifest replaces the stored manifest: each procedure of the
	// analyzed program mapped to its content fingerprint, for the next
	// run to diff the program it sees against, and, in the same record,
	// mod: each procedure's transitive Mod set (nil records none).
	PutManifest(m map[string]Fingerprint, mod map[string][]string) error
	// LoadManifest returns the stored manifest and Mod sets, or nil
	// when none was ever written — the caller must then treat every
	// stored summary as potentially stale. A manifest written without
	// Mod sets comes with a nil mod.
	LoadManifest() (map[string]Fingerprint, map[string][]string, error)
	// Flush makes everything put so far durable (fsync of the log for
	// the disk backend, within the crash model above; a no-op for the
	// in-memory backend).
	Flush() error
	// Close flushes and releases the store.
	Close() error
}

// Fingerprint identifies the corpus/driver + analysis + wire version a
// store's contents are valid for.
type Fingerprint [sha256.Size]byte

// NewFingerprint hashes the given parts (length-prefixed, so part
// boundaries are unambiguous) into a store fingerprint. Callers include
// the wire version, the analysis name, and the full program text, so
// any change to what the summaries mean invalidates the store.
func NewFingerprint(parts ...string) Fingerprint {
	n := 0
	for _, p := range parts {
		n += binary.MaxVarintLen64 + len(p)
	}
	b := make([]byte, 0, n)
	for _, p := range parts {
		b = append(binary.AppendUvarint(b, uint64(len(p))), p...)
	}
	return sha256.Sum256(b)
}

func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:8]) }

// Mem is the in-memory backend: each procedure's summaries in insertion
// order, deduplicated by canonical wire key, all under one lock. It is
// the natural store for a long-lived server sharing warm summaries
// across requests without touching disk.
type Mem struct {
	mu       sync.Mutex
	keys     map[string]string // canonical wire key -> procedure
	sums     map[string][]summary.Summary
	prov     []wire.ProvRecord
	manifest map[string]Fingerprint
	mod      map[string][]string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{keys: map[string]string{}, sums: map[string][]summary.Summary{}}
}

// Load returns the stored summaries, sorted by procedure then insertion
// order.
func (m *Mem) Load() ([]summary.Summary, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	procs := make([]string, 0, len(m.sums))
	for p := range m.sums {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	out := make([]summary.Summary, 0, len(m.keys))
	for _, p := range procs {
		out = append(out, m.sums[p]...)
	}
	return out, nil
}

// Put stores s, deduplicated by canonical wire key.
func (m *Mem) Put(s summary.Summary) (bool, error) {
	key, err := wire.SummaryKey(s)
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.keys[key]; dup {
		return false, nil
	}
	m.keys[key] = s.Proc
	m.sums[s.Proc] = append(m.sums[s.Proc], s)
	return true, nil
}

// DeleteProcs removes every summary of the given procedures (all of
// them when procs is nil or empty) and reports how many were removed
// per procedure.
func (m *Mem) DeleteProcs(procs []string) (map[string]int, error) {
	all := len(procs) == 0
	doomed := make(map[string]bool, len(procs))
	for _, p := range procs {
		doomed[p] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := map[string]int{}
	for key, proc := range m.keys {
		if all || doomed[proc] {
			removed[proc]++
			delete(m.keys, key)
		}
	}
	for proc := range removed {
		delete(m.sums, proc)
	}
	return removed, nil
}

// PutManifest replaces the stored manifest and Mod sets with copies of
// m2 and mod.
func (m *Mem) PutManifest(m2 map[string]Fingerprint, mod map[string][]string) error {
	cp := make(map[string]Fingerprint, len(m2))
	maps.Copy(cp, m2)
	mcp := cloneMod(mod)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.manifest, m.mod = cp, mcp
	return nil
}

// LoadManifest returns copies of the stored manifest and Mod sets, or
// nil when none was ever written.
func (m *Mem) LoadManifest() (map[string]Fingerprint, map[string][]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.manifest), cloneMod(m.mod), nil
}

func cloneMod(mod map[string][]string) map[string][]string {
	if mod == nil {
		return nil
	}
	out := make(map[string][]string, len(mod))
	for p, gs := range mod {
		out[p] = slices.Clone(gs)
	}
	return out
}

// PutProv stores one provenance record. The record is validated by a
// round trip through its wire encoding, so the in-memory backend
// rejects exactly what the disk backend would.
func (m *Mem) PutProv(rec wire.ProvRecord) error {
	if _, err := wire.AppendProv(nil, rec); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prov = append(m.prov, rec)
	return nil
}

// LoadProv returns the stored provenance records, oldest first.
func (m *Mem) LoadProv() ([]wire.ProvRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]wire.ProvRecord(nil), m.prov...), nil
}

// Flush is a no-op for the in-memory backend.
func (m *Mem) Flush() error { return nil }

// Close is a no-op for the in-memory backend.
func (m *Mem) Close() error { return nil }

// Count returns the number of stored summaries.
func (m *Mem) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// MismatchError reports a store bound to a different corpus/driver
// fingerprint, or written by another format version. Warm-starting from
// it would be unsound, so it is rejected: the caller points at the right
// store or explicitly recreates this one.
type MismatchError struct {
	Path string
	Want Fingerprint
	Got  Fingerprint
	// GotVersion is the format version in the log's header.
	GotVersion byte
}

func (e *MismatchError) Error() string {
	what := fmt.Sprintf("holds summaries for a different corpus/driver (store fingerprint %s, expected %s)", e.Got, e.Want)
	if e.GotVersion != logVersion {
		what = fmt.Sprintf("was written in store format %d, this build reads format %d", e.GotVersion, logVersion)
	}
	return fmt.Sprintf("store: %s %s; refusing to reuse a stale store — point at the matching store or recreate this one explicitly (-store-reset)", e.Path, what)
}

// BusyError reports a store directory another handle — in this process
// or another — holds open.
type BusyError struct{ Dir string }

func (e *BusyError) Error() string {
	return fmt.Sprintf("store: %s is in use by another run (its lock is held)", e.Dir)
}

// CorruptError reports a log whose bytes are present and wrong: a bad
// header, a failed checksum, an unknown record kind, a record that does
// not decode. Nothing is recovered from such a log. Damage the open
// cannot see — formulas inside a summary, or a provenance record, with a
// good checksum, which the open does not decode — is reported by the
// Load or LoadProv that decodes them.
type CorruptError struct {
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: %v (corrupt store)", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }
