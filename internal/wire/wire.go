// Package wire defines the stable cross-process encoding of the
// objects that may legitimately leave a process: summaries and
// questions. It composes the canonical formula encoding of
// internal/logic (logic.AppendWire) with length-prefixed strings and a
// record tag, and it is the single choke point where durability is
// enforced: nothing resembling a process-local logic.Key — the
// "#<intern-id>" render — may be written into a persisted artifact. Only canonical wire bytes cross
// the process boundary.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/logic"
	"repro/internal/summary"
)

// Version is the wire-format version. It participates in every store
// fingerprint, so bumping it invalidates (rather than misreads) any
// artifact written under an older encoding.
//
// v2: provenance records carry the root question's durable key and the
// procedure dependency adjacency (incremental invalidation planning);
// segment files may contain tombstone records.
// v3: provenance records no longer carry the summaries the verdict read.
const Version = 3

// Record tags: the first byte of every encoded record. The store's log
// dispatches on them, so a record's kind is written exactly once.
const (
	TagSummary  = 0x53 // 'S'
	TagQuestion = 0x51 // 'Q'
	TagTomb     = 0x54 // 'T'
	TagProv     = 0x50 // 'P'
)

const maxStringLen = 1 << 16

// ErrVolatileKey is wrapped by every durability-guard failure.
var ErrVolatileKey = fmt.Errorf("wire: process-local logic.Key leaked into a durable artifact")

// CheckDurable rejects strings that carry a process-local formula
// identity: the "#<id>" render of an interned logic.Key. Such strings are
// only meaningful inside the run that produced them; persisting or shipping one is
// always a bug. The encoders below run this check on every string they
// write, so the store encoder cannot emit one even if a caller
// mistakenly threads a Key through a name field.
func CheckDurable(s string) error {
	if looksVolatile(s) {
		return fmt.Errorf("%w: %q", ErrVolatileKey, s)
	}
	return nil
}

func looksVolatile(s string) bool {
	if len(s) < 2 || s[0] != '#' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// AppendSummary appends the canonical encoding of s to dst:
// tag, kind, proc, Pre wire bytes, Post wire bytes.
func AppendSummary(dst []byte, s summary.Summary) ([]byte, error) {
	if err := CheckDurable(s.Proc); err != nil {
		return dst, fmt.Errorf("summary for proc %q: %w", s.Proc, err)
	}
	if s.Pre == nil || s.Post == nil {
		return dst, fmt.Errorf("wire: summary for proc %q has a nil formula", s.Proc)
	}
	dst = append(dst, TagSummary, byte(s.Kind))
	dst = appendString(dst, s.Proc)
	dst = logic.AppendWire(dst, s.Pre)
	dst = logic.AppendWire(dst, s.Post)
	return dst, nil
}

// DecodeSummary decodes one summary and returns the bytes consumed.
func DecodeSummary(buf []byte) (summary.Summary, int, error) {
	kind, proc, pos, err := decodeSummaryHead(buf)
	if err != nil {
		return summary.Summary{}, 0, err
	}
	s := summary.Summary{Kind: kind, Proc: proc}
	for _, f := range []*logic.Formula{&s.Pre, &s.Post} {
		var n int
		if *f, n, err = logic.DecodeWire(buf[pos:]); err != nil {
			return summary.Summary{}, 0, err
		}
		pos += n
	}
	return s, pos, nil
}

// SummaryProc returns the procedure a summary record is about. It reads
// the record's header only: neither formula is decoded or checked.
func SummaryProc(buf []byte) (string, error) {
	_, proc, _, err := decodeSummaryHead(buf)
	return proc, err
}

// decodeSummaryHead decodes a summary record's tag, kind and procedure
// and returns the offset of its first formula.
func decodeSummaryHead(buf []byte) (summary.Kind, string, int, error) {
	if len(buf) < 2 || buf[0] != TagSummary {
		return 0, "", 0, fmt.Errorf("wire: not a summary record")
	}
	kind := summary.Kind(buf[1])
	if kind != summary.Must && kind != summary.NotMay {
		return 0, "", 0, fmt.Errorf("wire: unknown summary kind %d", buf[1])
	}
	proc, n, err := decodeString(buf[2:])
	if err != nil {
		return 0, "", 0, err
	}
	return kind, proc, 2 + n, nil
}

// SummaryKey is the canonical cross-process identity of a summary: its
// wire encoding as a string. Two summaries with equal keys are the same
// fact in every process.
func SummaryKey(s summary.Summary) (string, error) {
	b, err := AppendSummary(nil, s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendQuestion appends the canonical encoding of q to dst. Nil
// formulas (scripted test questions) encode as the reserved nil tag.
func AppendQuestion(dst []byte, q summary.Question) ([]byte, error) {
	if err := CheckDurable(q.Proc); err != nil {
		return dst, fmt.Errorf("question for proc %q: %w", q.Proc, err)
	}
	dst = append(dst, TagQuestion)
	dst = appendString(dst, q.Proc)
	dst = appendOptFormula(dst, q.Pre)
	dst = appendOptFormula(dst, q.Post)
	return dst, nil
}

// AppendTombstone appends a tombstone record for proc to dst: tag,
// proc. A tombstone marks every previously appended summary of proc as
// deleted; segment readers drop the proc's live records when they scan
// past one, and compaction on reopen rewrites the segment without
// either side of the pair.
func AppendTombstone(dst []byte, proc string) ([]byte, error) {
	if err := CheckDurable(proc); err != nil {
		return dst, fmt.Errorf("tombstone for proc %q: %w", proc, err)
	}
	dst = append(dst, TagTomb)
	dst = appendString(dst, proc)
	return dst, nil
}

// DecodeTombstone decodes one tombstone record and returns the
// procedure it deletes plus the bytes consumed.
func DecodeTombstone(buf []byte) (string, int, error) {
	if len(buf) < 1 || buf[0] != TagTomb {
		return "", 0, fmt.Errorf("wire: not a tombstone record")
	}
	proc, n, err := decodeString(buf[1:])
	if err != nil {
		return "", 0, err
	}
	return proc, 1 + n, nil
}

// QuestionKey is the canonical cross-process identity of a question —
// the durable analogue of Question.Key (which is built from
// process-local intern ids and must never leave the process).
func QuestionKey(q summary.Question) (string, error) {
	b, err := AppendQuestion(nil, q)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(buf []byte) (string, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return "", 0, fmt.Errorf("wire: bad string length")
	}
	if l > maxStringLen || uint64(len(buf)-n) < l {
		return "", 0, fmt.Errorf("wire: string length %d out of range", l)
	}
	return string(buf[n : n+int(l)]), n + int(l), nil
}

func appendOptFormula(dst []byte, f logic.Formula) []byte {
	if f == nil {
		return append(dst, logic.WireNil)
	}
	return logic.AppendWire(dst, f)
}
