// Disk is the disk-backed store: one append-only log. A header (magic,
// format version, store fingerprint) is followed by records framed
// uvarint(len) · payload · crc32(payload); a payload's first byte is its
// kind:
//
//	S  summary     (wire.AppendSummary)    live until a later T names its procedure
//	T  tombstone   (wire.AppendTombstone)  kills every earlier S of one procedure
//	P  provenance  (wire.AppendProv)       live until a later P of the same root question
//	M  manifest    (appendManifest)        the last one wins; carries the Mod sets when recorded
//
// OpenDisk reads the file once, into one buffer, through the descriptor
// it then appends through, and replays it into memory; after that the
// handle only appends, and reads are served from memory. The replay
// checks every record's frame and checksum and keeps one copy of the log
// rather than a copy per record: summaries are keyed by substrings of
// one string copy of the buffer, and only the few provenance and
// manifest payloads are copied out of it. It decodes no formula: of a
// summary it reads the procedure from the header, a manifest it decodes
// to check it, and a provenance record (which holds no formula) it
// leaves to LoadProv, unless two records may share a root question
// (foldProv). Load decodes summaries, once, and a re-check that reuses
// its verdict never does. Flush and Close fsync the log only when the
// handle wrote to it since the last fsync, so such a re-check syncs
// nothing either. The log grows by whole-record appends and is replaced
// only by tmp+rename, so a crash leaves a prefix of the records appended
// plus, at most, part of the last one, which the next open trims: a
// record that is present implies every record appended before it
// (DESIGN.md §7.3). Damage anywhere else is a *CorruptError, never a
// silent drop. An open that met dead records rewrites the log without
// them, folding superseded provenance into the newest record of its root
// question as it goes, and an exclusive flock on the directory, held
// until Close, keeps a second handle from appending or rewriting
// underneath.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"

	"repro/internal/summary"
	"repro/internal/wire"
)

const (
	logMagic   = "BOLTSEG1"
	logVersion = 2
	// SegName is the log's file name inside a store directory.
	SegName = "summaries.seg"

	headerSize   = len(logMagic) + 1 + len(Fingerprint{})
	maxRecordLen = 1 << 24
	tagManifest  = 0x4d // 'M'
)

// legacyNames are the files format version 1 kept beside the segment; a
// freshly created log removes them.
var legacyNames = []string{"summaries.idx", "prov.seg", "manifest.seg"}

var (
	errClosed = errors.New("store: use of closed store")
	errTorn   = errors.New("record runs past the end of the log")
)

// Disk is the disk-backed Store. All methods are safe for concurrent
// use.
type Disk struct {
	mu     sync.Mutex
	path   string
	fp     Fingerprint
	lock   *os.File            // the flocked store directory
	f      *os.File            // the log, opened for append
	keys   map[string]struct{} // live summary payloads: the dedup set
	byProc map[string][]string // live summary payloads per procedure, in append order
	prov   [][]byte            // provenance payloads, oldest first, decoded when asked for
	man    []byte              // live manifest payload, nil when none was written
	werr   error               // first failed append: the tail may be torn, so no further append may follow it
	dirty  bool                // written to since the last fsync: Close syncs only then
	closed bool
}

// OpenDisk opens (or creates) the summary store in dir for the given
// fingerprint. A store written under a different fingerprint or format
// version is rejected with *MismatchError unless reset is true, in which
// case it is discarded and recreated empty — stale contents are never
// silently reused either way. A directory another handle holds open
// fails with *BusyError.
func OpenDisk(dir string, fp Fingerprint, reset bool) (_ *Disk, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// The exclusive flock belongs to this descriptor: closing it releases
	// the lock, and so does the death of the process.
	lock, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	if err := flock(lock); errors.Is(err, syscall.EWOULDBLOCK) {
		return nil, &BusyError{Dir: dir}
	} else if err != nil {
		return nil, fmt.Errorf("store: locking %s: %w", dir, err)
	}
	d := &Disk{
		path:   filepath.Join(dir, SegName),
		fp:     fp,
		lock:   lock,
		keys:   map[string]struct{}{},
		byProc: map[string][]string{},
	}
	// One descriptor reads the log and then appends to it, unless the
	// open rewrites the log, which replaces the file.
	defer func() {
		if err != nil && d.f != nil {
			d.f.Close()
		}
	}()
	var data []byte
	d.f, err = os.OpenFile(d.path, os.O_RDWR|os.O_APPEND, 0)
	if err == nil {
		data, err = readAll(d.f)
	}
	fresh, stale := false, false
	switch {
	case errors.Is(err, os.ErrNotExist):
		fresh = true
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	default:
		if len(data) < headerSize || string(data[:len(logMagic)]) != logMagic {
			return nil, &CorruptError{Path: d.path, Err: errors.New("not a summary store log")}
		}
		version := data[len(logMagic)]
		var got Fingerprint
		copy(got[:], data[len(logMagic)+1:headerSize])
		if version != logVersion || got != fp {
			if !reset {
				return nil, &MismatchError{Path: d.path, Want: fp, Got: got, GotVersion: version}
			}
			fresh = true
		} else if stale, err = d.replay(data); err != nil {
			return nil, err
		} else if d.foldProv() {
			stale = true
		}
	}
	if fresh {
		for _, name := range legacyNames {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	if fresh || stale {
		if d.f != nil {
			d.f.Close()
			d.f = nil
		}
		if err := d.rewrite(); err != nil {
			return nil, err
		}
		if d.f, err = os.OpenFile(d.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return d, nil
}

// flock takes the exclusive lock on f without waiting, through the raw
// descriptor (File.Fd would first switch it to blocking mode).
func flock(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) {
		ferr = syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
	}); err != nil {
		return err
	}
	return ferr
}

// readAll reads f from where it stands to its end into one buffer, sized
// by the file's length.
func readAll(f *os.File) ([]byte, error) {
	size := 512
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		size = int(fi.Size()) + 1 // room to read the end
	}
	data := make([]byte, 0, size)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// replay applies every record of data, in order, to the in-memory state
// and reports whether the file holds anything a rewrite would drop: a
// dead or duplicate summary, a tombstone, a superseded manifest, a torn
// tail. Superseded provenance is foldProv's to find. The state keeps
// one copy of the log: a summary is keyed by a substring of one string
// copy of data; provenance and the manifest, a few records, are copied
// out of data, so that data is garbage once the open returns.
func (d *Disk) replay(data []byte) (stale bool, err error) {
	text := string(data)
	for pos := headerSize; pos < len(data); {
		payload, next, err := parseRecord(data, pos)
		if err == errTorn {
			// A torn tail is the residue of the last append, so nothing
			// complete can follow it. When something does, the length at
			// pos was damaged in place, and trimming would drop every
			// record behind it.
			for p := pos + 1; p < len(data); p++ {
				if _, _, err := parseRecord(data, p); err == nil {
					return false, d.corrupt(pos, fmt.Errorf("%w, yet a complete record follows at offset %d", errTorn, p))
				}
			}
			return true, nil
		}
		if err == nil {
			var dropped bool
			dropped, err = d.apply(payload, text[next-4-len(payload):next-4])
			stale = stale || dropped
		}
		if err != nil {
			return false, d.corrupt(pos, err)
		}
		pos = next
	}
	return stale, nil
}

func (d *Disk) corrupt(pos int, err error) error {
	return &CorruptError{Path: d.path, Err: fmt.Errorf("record at offset %d: %w", pos, err)}
}

// apply replays one record, whose payload is also key, and reports
// whether it made an earlier record (or itself) dead weight. A
// provenance record is not decoded: one that does not decode is kept,
// LoadProv reports it, typed, an incremental re-check then reuses no
// verdict, and the summaries stay usable.
func (d *Disk) apply(payload []byte, key string) (dropped bool, err error) {
	switch payload[0] {
	case wire.TagSummary:
		proc, err := wire.SummaryProc(payload)
		if err != nil {
			return false, err
		}
		return !d.addSummary(key, proc), nil
	case wire.TagTomb:
		proc, _, err := wire.DecodeTombstone(payload)
		if err != nil {
			return false, err
		}
		d.dropProc(proc)
		return true, nil
	case wire.TagProv:
		d.prov = append(d.prov, bytes.Clone(payload))
		return false, nil
	default: // tagManifest: parseRecord admits no other kind
		if _, _, err := decodeManifest(payload); err != nil {
			return false, err
		}
		dropped = d.man != nil
		d.man = bytes.Clone(payload)
		return dropped, nil
	}
}

// addSummary records a live summary and reports whether it was new.
func (d *Disk) addSummary(key, proc string) bool {
	if _, dup := d.keys[key]; dup {
		return false
	}
	d.keys[key] = struct{}{}
	d.byProc[proc] = append(d.byProc[proc], key)
	return true
}

// dropProc forgets proc's live summaries and returns how many there were.
func (d *Disk) dropProc(proc string) int {
	keys := d.byProc[proc]
	for _, key := range keys {
		delete(d.keys, key)
	}
	delete(d.byProc, proc)
	return len(keys)
}

// foldProv keeps one provenance record per root question, the newest, in
// its place, and folds into it the dependency adjacency of every record
// of that question before it. The union of
// every record's adjacency, which is all an incremental re-check takes
// from superseded records, is therefore unchanged. It reports whether it
// dropped a record. A record that did not decode, or one without a root
// key, is kept as it is: LoadProv reports the first, and the second
// names no question to be superseded on. With fewer than two records
// there is nothing to fold, and nothing is decoded.
func (d *Disk) foldProv() bool {
	if len(d.prov) < 2 {
		return false
	}
	type root struct {
		newest, n int
		deps      map[string]map[string]bool
	}
	roots := map[string]*root{}
	keys := make([]string, len(d.prov)) // each record's root key, "" when it has none or did not decode
	for i, payload := range d.prov {
		head, _, err := wire.DecodeProv(payload)
		if err != nil || head.RootKey == "" {
			continue
		}
		keys[i] = head.RootKey
		r := roots[head.RootKey]
		if r == nil {
			r = &root{deps: map[string]map[string]bool{}}
			roots[head.RootKey] = r
		}
		r.newest, r.n = i, r.n+1
		for proc, callees := range head.Deps {
			if r.deps[proc] == nil {
				r.deps[proc] = map[string]bool{}
			}
			for _, c := range callees {
				r.deps[proc][c] = true
			}
		}
	}
	folded := map[string][]byte{}
	for key, r := range roots {
		if r.n == 1 {
			continue
		}
		deps := make(map[string][]string, len(r.deps))
		for proc, callees := range r.deps {
			deps[proc] = sortedKeys(callees)
		}
		// A record that does not re-encode keeps its predecessors.
		if p, err := wire.ProvWithDeps(d.prov[r.newest], deps); err == nil {
			folded[key] = p
		}
	}
	if len(folded) == 0 {
		return false
	}
	kept := d.prov[:0]
	for i, payload := range d.prov {
		if f, ok := folded[keys[i]]; ok {
			if i != roots[keys[i]].newest {
				continue
			}
			payload = f
		}
		kept = append(kept, payload)
	}
	clear(d.prov[len(kept):])
	d.prov = kept
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseRecord reads the record at pos and returns its payload and the
// offset of the next record. errTorn means the record is cut off by the
// end of data; any other error means the bytes are there and wrong.
func parseRecord(data []byte, pos int) (payload []byte, next int, err error) {
	plen, n := binary.Uvarint(data[pos:])
	if n == 0 {
		return nil, 0, errTorn
	}
	if n < 0 || plen == 0 || plen > maxRecordLen {
		return nil, 0, errors.New("bad record length")
	}
	body := pos + n
	end := body + int(plen) + 4
	if end > len(data) {
		return nil, 0, errTorn
	}
	payload = data[body : end-4]
	switch payload[0] {
	case wire.TagSummary, wire.TagTomb, wire.TagProv, tagManifest:
	default:
		return nil, 0, fmt.Errorf("unknown record kind %#x", payload[0])
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[end-4:]) {
		return nil, 0, errors.New("checksum mismatch")
	}
	return payload, end, nil
}

// appendRecord frames payload onto dst.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// rewrite replaces the log with exactly the in-memory state — live
// summaries, live provenance, the live manifest — via tmp+rename,
// so a crash leaves the old file or the new one.
func (d *Disk) rewrite() error {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, logMagic...)
	buf = append(buf, logVersion)
	buf = append(buf, d.fp[:]...)
	for _, proc := range sortedKeys(d.byProc) {
		for _, key := range d.byProc[proc] {
			buf = appendRecord(buf, []byte(key))
		}
	}
	for _, payload := range d.prov {
		buf = appendRecord(buf, payload)
	}
	if d.man != nil {
		buf = appendRecord(buf, d.man)
	}
	tmp := d.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.dirty = true
	return nil
}

// append frames payload and appends it to the log. A failed write may
// leave part of a record, and a record appended behind that would turn a
// trimmable tail into mid-file corruption: the first failure sticks.
func (d *Disk) append(payload []byte) error {
	if d.werr == nil {
		d.dirty = true
		rec := appendRecord(make([]byte, 0, len(payload)+binary.MaxVarintLen32+4), payload)
		if _, err := d.f.Write(rec); err != nil {
			d.werr = fmt.Errorf("store: %w", err)
		}
	}
	return d.werr
}

// Put appends one summary record, deduplicated by canonical wire key.
// The wire encoder is the durability guard: a summary whose fields
// carry a process-local "#id" key is refused before any byte
// reaches disk.
func (d *Disk) Put(s summary.Summary) (bool, error) {
	payload, err := wire.AppendSummary(nil, s)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, errClosed
	}
	if _, dup := d.keys[string(payload)]; dup {
		return false, nil
	}
	if err := d.append(payload); err != nil {
		return false, err
	}
	d.addSummary(string(payload), s.Proc)
	return true, nil
}

// Load returns every live summary, by procedure and then in the order
// they were put. It decodes their formulas, which the open did not: one
// that does not decode is a *CorruptError.
func (d *Disk) Load() ([]summary.Summary, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errClosed
	}
	out := make([]summary.Summary, 0, len(d.keys))
	for _, proc := range sortedKeys(d.byProc) {
		for i, key := range d.byProc[proc] {
			s, _, err := wire.DecodeSummary([]byte(key))
			if err != nil {
				return nil, &CorruptError{Path: d.path, Err: fmt.Errorf("summary %d of %s: %w", i, proc, err)}
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Count returns the number of live summaries.
func (d *Disk) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.keys)
}

// DeleteProcs discards every summary of the given procedures (of all,
// in name order, when procs is empty) by appending one tombstone per
// affected procedure, in the order given: a crash between two leaves the
// earlier ones dead. The next open rewrites the log without the dead
// records.
func (d *Disk) DeleteProcs(procs []string) (map[string]int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errClosed
	}
	if len(procs) == 0 {
		procs = sortedKeys(d.byProc)
	}
	removed := map[string]int{}
	for _, proc := range procs {
		if len(d.byProc[proc]) == 0 {
			continue
		}
		payload, err := wire.AppendTombstone(nil, proc)
		if err != nil {
			return removed, fmt.Errorf("store: %w", err)
		}
		if err := d.append(payload); err != nil {
			return removed, err
		}
		removed[proc] = d.dropProc(proc)
	}
	return removed, nil
}

// PutProv appends one provenance record and syncs it. The wire encoder
// is the durability guard, exactly as for summaries.
func (d *Disk) PutProv(rec wire.ProvRecord) error {
	payload, err := wire.AppendProv(nil, rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if err := d.append(payload); err != nil {
		return err
	}
	d.prov = append(d.prov, payload)
	return d.sync()
}

// LoadProv returns every persisted provenance record, oldest first,
// decoded afresh for the caller.
func (d *Disk) LoadProv() ([]wire.ProvRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errClosed
	}
	out := make([]wire.ProvRecord, 0, len(d.prov))
	for i, payload := range d.prov {
		rec, _, err := wire.DecodeProv(payload)
		if err != nil {
			return nil, &CorruptError{Path: d.path, Err: fmt.Errorf("provenance record %d: %w", i, err)}
		}
		out = append(out, rec)
	}
	return out, nil
}

// PutManifest appends m, with the Mod sets mod, as the live manifest. A
// manifest equal to the live one appends nothing.
func (d *Disk) PutManifest(m map[string]Fingerprint, mod map[string][]string) error {
	payload := appendManifest(nil, m, mod)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if bytes.Equal(payload, d.man) {
		return nil
	}
	if err := d.append(payload); err != nil {
		return err
	}
	d.man = payload
	return nil
}

// LoadManifest returns the live manifest and its Mod sets, or nil when
// none was ever written.
func (d *Disk) LoadManifest() (map[string]Fingerprint, map[string][]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, nil, errClosed
	}
	if d.man == nil {
		return nil, nil, nil
	}
	return decodeManifest(d.man)
}

// appendManifest encodes m: tag, uvarint count, then per procedure (in
// name order, so equal manifests encode equally) its length-prefixed
// name and content fingerprint. When mod is not nil the Mod sets follow:
// uvarint count, then per procedure, in name order, its length-prefixed
// name, a uvarint count and as many length-prefixed globals, sorted. A
// manifest written before the Mod sets were recorded ends after the
// fingerprints, and decodes with a nil mod.
func appendManifest(dst []byte, m map[string]Fingerprint, mod map[string][]string) []byte {
	dst = append(dst, tagManifest)
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, p := range sortedKeys(m) {
		dst = appendString(dst, p)
		fp := m[p]
		dst = append(dst, fp[:]...)
	}
	if mod == nil {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(mod)))
	for _, p := range sortedKeys(mod) {
		gs := slices.Clone(mod[p])
		sort.Strings(gs)
		dst = appendString(dst, p)
		dst = binary.AppendUvarint(dst, uint64(len(gs)))
		for _, g := range gs {
			dst = appendString(dst, g)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// decodeManifest decodes a payload that starts with tagManifest.
func decodeManifest(buf []byte) (map[string]Fingerprint, map[string][]string, error) {
	bad := errors.New("malformed manifest record")
	buf = buf[1:]
	str := func() (string, bool) {
		l, w := binary.Uvarint(buf)
		if w <= 0 || l > uint64(len(buf)-w) {
			return "", false
		}
		s := string(buf[w : w+int(l)])
		buf = buf[w+int(l):]
		return s, true
	}
	count := func() (uint64, bool) {
		n, w := binary.Uvarint(buf)
		if w <= 0 || n > uint64(len(buf)) {
			return 0, false
		}
		buf = buf[w:]
		return n, true
	}
	n, ok := count()
	if !ok {
		return nil, nil, bad
	}
	out := make(map[string]Fingerprint, n)
	for ; n > 0; n-- {
		name, ok := str()
		if !ok || len(buf) < len(Fingerprint{}) {
			return nil, nil, bad
		}
		var fp Fingerprint
		buf = buf[copy(fp[:], buf):]
		out[name] = fp
	}
	if len(buf) == 0 {
		return out, nil, nil
	}
	if n, ok = count(); !ok {
		return nil, nil, bad
	}
	mod := make(map[string][]string, n)
	for ; n > 0; n-- {
		name, ok := str()
		if !ok {
			return nil, nil, bad
		}
		k, ok := count()
		if !ok {
			return nil, nil, bad
		}
		gs := make([]string, 0, k)
		for ; k > 0; k-- {
			g, ok := str()
			if !ok {
				return nil, nil, bad
			}
			gs = append(gs, g)
		}
		mod[name] = gs
	}
	if len(buf) != 0 {
		return nil, nil, bad
	}
	return out, mod, nil
}

// Flush fsyncs the log when anything was written to it since the last
// fsync: every record appended so far is durable.
func (d *Disk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.sync()
}

// sync fsyncs the log when it was written to since the last fsync.
func (d *Disk) sync() error {
	if !d.dirty {
		return nil
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.dirty = false
	return nil
}

// Close flushes the log and releases it and the directory lock. A handle
// that neither appended nor rewrote the log does not fsync it.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.sync()
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: %w", cerr)
	}
	d.lock.Close()
	return err
}
