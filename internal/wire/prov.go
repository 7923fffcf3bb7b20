// Provenance records: the durable part of a verdict's provenance,
// persisted beside the summaries — what an incremental re-check reads:
// the root question's durable key (QuestionKey bytes, never a
// process-local logic.Key), the verdict, and the procedure dependency
// adjacency it plans invalidation from. The summary-level read set stays
// in the run's Provenance; no formula is persisted here.

package wire

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// ProvRecord is a verdict's persisted provenance.
type ProvRecord struct {
	// Root is the root procedure the verdict answers for; Verdict the
	// answer; Engine the engine that produced it.
	Root    string
	Verdict string
	Engine  string
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
// verdict, engine, root key, then the dependency adjacency.
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
// consumed.
func DecodeProv(buf []byte) (ProvRecord, int, error) {
	p, _, n, err := decodeProv(buf)
	return p, n, err
}

// ProvWithDeps returns a copy of the provenance record payload whose
// dependency adjacency is deps. The bytes ahead of the adjacency (root,
// verdict, engine, root key) are copied as they are.
func ProvWithDeps(payload []byte, deps map[string][]string) ([]byte, error) {
	_, depsAt, n, err := decodeProv(payload)
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
func decodeProv(buf []byte) (p ProvRecord, depsAt, end int, err error) {
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
