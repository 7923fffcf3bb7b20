// Provenance records: the durable encoding of a verdict's read set,
// persisted beside the summaries it refers to so a warm start can
// report which stored summaries the previous run actually consumed.
// Summaries inside a provenance record are identified by their full
// canonical wire encoding (SummaryKey bytes), never by process-local
// logic.Key strings — the same durability discipline as every other
// record in this package.

package wire

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/summary"
)

// ProvRead is one consumed summary in a provenance record.
type ProvRead struct {
	// Summary is the consumed fact (round-trips through the canonical
	// summary encoding).
	Summary summary.Summary
	// Warm marks a summary that was hydrated from the store rather than
	// derived fresh by the recording run.
	Warm bool
	// Count is the number of read-set hits the run recorded on it.
	Count int64
}

// ProvRecord is a verdict's persisted read set.
type ProvRecord struct {
	// Root is the root procedure the verdict answers for; Verdict the
	// answer; Engine the engine that produced it.
	Root    string
	Verdict string
	Engine  string
	Reads   []ProvRead
	// RootKey is the durable identity of the root question (QuestionKey
	// bytes). It lets an incremental re-check match a persisted verdict
	// to the question it is about to re-ask; empty on records persisted
	// before the run knew its durable question key.
	RootKey string
	// Deps is the procedure-granularity dependency adjacency the run
	// observed: proc -> procedures whose summaries or spawned answers it
	// consumed. Incremental invalidation unions this with the edited
	// program's static call graph when computing the stale cone.
	Deps map[string][]string
}

// AppendProv appends the canonical encoding of p to dst: tag, root,
// verdict, engine, then a uvarint count of reads, each as warm byte,
// count uvarint, and the summary's own wire record. Summaries whose
// formulas cannot be durably encoded (nil formulas from scripted test
// punches) are rejected — callers filter those out before persisting.
func AppendProv(dst []byte, p ProvRecord) ([]byte, error) {
	for _, s := range []string{p.Root, p.Verdict, p.Engine} {
		if err := CheckDurable(s); err != nil {
			return dst, fmt.Errorf("provenance record: %w", err)
		}
	}
	dst = append(dst, TagProv)
	dst = appendString(dst, p.Root)
	dst = appendString(dst, p.Verdict)
	dst = appendString(dst, p.Engine)
	dst = binary.AppendUvarint(dst, uint64(len(p.Reads)))
	for _, r := range p.Reads {
		warm := byte(0)
		if r.Warm {
			warm = 1
		}
		dst = append(dst, warm)
		if r.Count < 0 {
			return dst, fmt.Errorf("wire: negative provenance read count %d", r.Count)
		}
		dst = binary.AppendUvarint(dst, uint64(r.Count))
		var err error
		dst, err = AppendSummary(dst, r.Summary)
		if err != nil {
			return dst, fmt.Errorf("provenance read: %w", err)
		}
	}
	// RootKey is wire bytes (a QuestionKey), not a name — it is durable
	// by construction and skips the volatility check.
	dst = appendString(dst, p.RootKey)
	return appendDeps(dst, p.Deps)
}

// appendDeps encodes a dependency adjacency: a uvarint count, then per
// procedure in name order its name and its sorted callees.
func appendDeps(dst []byte, deps map[string][]string) ([]byte, error) {
	procs := make([]string, 0, len(deps))
	for proc := range deps {
		procs = append(procs, proc)
	}
	sort.Strings(procs)
	dst = binary.AppendUvarint(dst, uint64(len(procs)))
	for _, proc := range procs {
		if err := CheckDurable(proc); err != nil {
			return dst, fmt.Errorf("provenance dep: %w", err)
		}
		dst = appendString(dst, proc)
		callees := append([]string(nil), deps[proc]...)
		sort.Strings(callees)
		dst = binary.AppendUvarint(dst, uint64(len(callees)))
		for _, c := range callees {
			if err := CheckDurable(c); err != nil {
				return dst, fmt.Errorf("provenance dep: %w", err)
			}
			dst = appendString(dst, c)
		}
	}
	return dst, nil
}

// DecodeProv decodes one provenance record and returns the bytes
// consumed. The caller chooses whether it needs the read set: with reads
// false every read is still checked for structure, but no formula is
// decoded or interned and Reads stays nil. Root, Verdict, Engine, RootKey
// and Deps are decoded either way.
func DecodeProv(buf []byte, reads bool) (ProvRecord, int, error) {
	p, _, n, err := decodeProv(buf, reads)
	return p, n, err
}

// ProvWithDeps returns a copy of the provenance record payload whose
// dependency adjacency is deps. The bytes ahead of the adjacency (root,
// verdict, engine, read set, root key) are copied as they are, so no
// formula is decoded.
func ProvWithDeps(payload []byte, deps map[string][]string) ([]byte, error) {
	_, depsAt, n, err := decodeProv(payload, false)
	if err != nil {
		return nil, err
	}
	if n != len(payload) {
		return nil, fmt.Errorf("wire: %d bytes after the provenance record", len(payload)-n)
	}
	return appendDeps(append([]byte(nil), payload[:depsAt]...), deps)
}

// decodeProv is DecodeProv that also returns the offset at which the
// record's dependency adjacency starts.
func decodeProv(buf []byte, reads bool) (p ProvRecord, depsAt, end int, err error) {
	fail := func(err error) (ProvRecord, int, int, error) { return ProvRecord{}, 0, 0, err }
	if len(buf) < 1 || buf[0] != TagProv {
		return fail(fmt.Errorf("wire: not a provenance record"))
	}
	pos := 1
	for _, field := range []*string{&p.Root, &p.Verdict, &p.Engine} {
		s, n, err := decodeString(buf[pos:])
		if err != nil {
			return fail(err)
		}
		*field = s
		pos += n
	}
	count, n := binary.Uvarint(buf[pos:])
	if n <= 0 || count > uint64(len(buf)) {
		return fail(fmt.Errorf("wire: bad provenance read count"))
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		if pos >= len(buf) {
			return fail(fmt.Errorf("wire: truncated provenance read"))
		}
		r := ProvRead{Warm: buf[pos] == 1}
		if buf[pos] > 1 {
			return fail(fmt.Errorf("wire: bad provenance warm flag %d", buf[pos]))
		}
		pos++
		hits, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return fail(fmt.Errorf("wire: bad provenance read count"))
		}
		r.Count = int64(hits)
		pos += n
		s, n, err := decodeSummary(buf[pos:], reads)
		if err != nil {
			return fail(err)
		}
		pos += n
		if reads {
			r.Summary = s
			p.Reads = append(p.Reads, r)
		}
	}
	rootKey, n, err := decodeString(buf[pos:])
	if err != nil {
		return fail(err)
	}
	p.RootKey = rootKey
	pos += n
	depsAt = pos
	nprocs, n := binary.Uvarint(buf[pos:])
	if n <= 0 || nprocs > uint64(len(buf)) {
		return fail(fmt.Errorf("wire: bad provenance dep count"))
	}
	pos += n
	for i := uint64(0); i < nprocs; i++ {
		proc, n, err := decodeString(buf[pos:])
		if err != nil {
			return fail(err)
		}
		pos += n
		ncallees, n := binary.Uvarint(buf[pos:])
		if n <= 0 || ncallees > uint64(len(buf)) {
			return fail(fmt.Errorf("wire: bad provenance dep callee count"))
		}
		pos += n
		callees := make([]string, 0, ncallees)
		for j := uint64(0); j < ncallees; j++ {
			c, n, err := decodeString(buf[pos:])
			if err != nil {
				return fail(err)
			}
			callees = append(callees, c)
			pos += n
		}
		if p.Deps == nil {
			p.Deps = map[string][]string{}
		}
		p.Deps[proc] = callees
	}
	return p, depsAt, pos, nil
}
