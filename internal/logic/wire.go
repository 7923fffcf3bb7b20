// Canonical wire format for formulas: a deterministic byte encoding
// that is stable across processes, unlike the process-local intern ids
// behind logic.Key.
//
// The two key spaces serve different jobs and must never be mixed:
//
//   - Key / KeyID (intern.go) are the in-memory hot path. They depend
//     on per-process first-intern order and are meaningless to any
//     other process or any later run.
//   - AppendWire (this file) is the durable identity. It is computed
//     purely from structure — variable names, coefficients, node kinds
//     — with And/Or children sorted by their own encodings and
//     deduplicated, so structurally equal formulas (up to child order)
//     encode to identical bytes in every process.
//
// The encoding is injective on canonicalized structure and idempotent:
// decoding and re-encoding any wire image yields the same bytes. Only
// AppendWire's bytes may cross a process boundary or be written to a
// persisted artifact; internal/wire enforces that invariant for the
// summary store.
package logic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/lang"
)

// Wire tags, one per formula node kind. The zero byte is reserved as
// the "nil formula" marker used by internal/wire for optional fields.
const (
	WireNil   = 0x00
	wireFalse = 0x01
	wireTrue  = 0x02
	wireLE    = 0x03
	wireEQ    = 0x04
	wireAnd   = 0x05
	wireOr    = 0x06
)

// Decoder hardening bounds: decoding untrusted bytes must terminate
// with an error, never a panic or a pathological allocation.
const (
	maxWireDepth    = 64
	maxWireChildren = 1 << 16
	maxWireVars     = 1 << 12
	maxWireName     = 1 << 12
)

// AppendWire appends the canonical wire encoding of f to dst.
func AppendWire(dst []byte, f Formula) []byte {
	switch f := f.(type) {
	case Bool:
		if bool(f) {
			return append(dst, wireTrue)
		}
		return append(dst, wireFalse)
	case Atom:
		tag := byte(wireLE)
		if f.Eq {
			tag = wireEQ
		}
		dst = append(dst, tag)
		return appendWireLin(dst, f.L)
	case And:
		return appendWireNode(dst, wireAnd, f.Fs)
	case Or:
		return appendWireNode(dst, wireOr, f.Fs)
	default:
		panic(fmt.Sprintf("logic: unknown Formula %T", f))
	}
}

// appendWireNode encodes an And/Or node canonically: children are
// flattened (same-kind nests), constant-folded, encoded individually,
// sorted by their encodings and deduplicated. A node that folds to a
// single child (or to a constant) emits that child's encoding directly,
// mirroring what the Conj/Disj constructors would build — this is what
// makes the encoding idempotent under decode→encode.
func appendWireNode(dst []byte, tag byte, fs []Formula) []byte {
	kids := make([][]byte, 0, len(fs))
	kids, short := gatherWire(kids, tag, fs)
	if short {
		// Absorbing constant: false in a conjunction, true in a
		// disjunction.
		if tag == wireAnd {
			return append(dst, wireFalse)
		}
		return append(dst, wireTrue)
	}
	sort.Slice(kids, func(i, j int) bool { return bytes.Compare(kids[i], kids[j]) < 0 })
	uniq := kids[:0]
	for i, k := range kids {
		if i > 0 && bytes.Equal(k, kids[i-1]) {
			continue
		}
		uniq = append(uniq, k)
	}
	switch len(uniq) {
	case 0:
		// Empty conjunction is true, empty disjunction is false.
		if tag == wireAnd {
			return append(dst, wireTrue)
		}
		return append(dst, wireFalse)
	case 1:
		return append(dst, uniq[0]...)
	}
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(uniq)))
	for _, k := range uniq {
		dst = append(dst, k...)
	}
	return dst
}

// gatherWire collects the canonical encodings of an And/Or node's
// children, flattening same-kind children and dropping neutral
// constants. It reports short=true when an absorbing constant makes
// the whole node constant.
func gatherWire(kids [][]byte, tag byte, fs []Formula) (_ [][]byte, short bool) {
	for _, g := range fs {
		switch g := g.(type) {
		case Bool:
			if bool(g) == (tag == wireAnd) {
				continue // neutral element: drop
			}
			return kids, true // absorbing element
		case And:
			if tag == wireAnd {
				var s bool
				kids, s = gatherWire(kids, tag, g.Fs)
				if s {
					return kids, true
				}
				continue
			}
		case Or:
			if tag == wireOr {
				var s bool
				kids, s = gatherWire(kids, tag, g.Fs)
				if s {
					return kids, true
				}
				continue
			}
		}
		kids = append(kids, AppendWire(nil, g))
	}
	return kids, false
}

// appendWireLin encodes a canonical linear term: zigzag-varint constant,
// then the (name, coefficient) pairs in the term's canonical sorted
// variable order.
func appendWireLin(dst []byte, l Lin) []byte {
	dst = binary.AppendVarint(dst, l.K)
	dst = binary.AppendUvarint(dst, uint64(len(l.Vars)))
	for i, v := range l.Vars {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
		dst = binary.AppendVarint(dst, l.Coefs[i])
	}
	return dst
}

// DecodeWire decodes one formula from buf and returns it together with
// the number of bytes consumed. The formula is rebuilt through the
// package constructors, so the result is interned and canonical in this
// process; malformed input returns an error, never a panic.
func DecodeWire(buf []byte) (Formula, int, error) {
	return decodeWire(buf, 0)
}

func decodeWire(buf []byte, depth int) (Formula, int, error) {
	if depth > maxWireDepth {
		return nil, 0, fmt.Errorf("logic: wire: formula nesting exceeds %d", maxWireDepth)
	}
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("logic: wire: truncated formula (empty input)")
	}
	tag := buf[0]
	pos := 1
	switch tag {
	case wireFalse:
		return False, pos, nil
	case wireTrue:
		return True, pos, nil
	case wireLE, wireEQ:
		var b [2]termBuf
		l, n, err := decodeWireLin(buf[pos:], &b)
		if err != nil {
			return nil, 0, err
		}
		pos += n
		if tag == wireEQ {
			return EQ(l), pos, nil
		}
		return LE(l), pos, nil
	case wireAnd, wireOr:
		count, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("logic: wire: bad child count")
		}
		pos += n
		if count > maxWireChildren {
			return nil, 0, fmt.Errorf("logic: wire: %d children exceeds %d", count, maxWireChildren)
		}
		fs := make([]Formula, 0, count)
		for i := uint64(0); i < count; i++ {
			f, n, err := decodeWire(buf[pos:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			pos += n
			fs = append(fs, f)
		}
		if tag == wireAnd {
			return Conj(fs...), pos, nil
		}
		return Disj(fs...), pos, nil
	default:
		return nil, 0, fmt.Errorf("logic: wire: unknown formula tag 0x%02x", tag)
	}
}

// decodeWireLin decodes a term into b, where it lives until b is reused.
func decodeWireLin(buf []byte, b *[2]termBuf) (Lin, int, error) {
	k, pos := binary.Varint(buf)
	if pos <= 0 {
		return Lin{}, 0, fmt.Errorf("logic: wire: bad term constant")
	}
	nvars, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Lin{}, 0, fmt.Errorf("logic: wire: bad variable count")
	}
	pos += n
	if nvars > maxWireVars {
		return Lin{}, 0, fmt.Errorf("logic: wire: %d variables exceeds %d", nvars, maxWireVars)
	}
	l, sums := LinConst(k), 0
	for i := uint64(0); i < nvars; i++ {
		nameLen, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Lin{}, 0, fmt.Errorf("logic: wire: bad variable name length")
		}
		pos += n
		if nameLen > maxWireName || uint64(len(buf)-pos) < nameLen {
			return Lin{}, 0, fmt.Errorf("logic: wire: variable name length %d out of range", nameLen)
		}
		name := buf[pos : pos+int(nameLen)]
		pos += int(nameLen)
		coef, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Lin{}, 0, fmt.Errorf("logic: wire: bad coefficient")
		}
		pos += n
		if coef != 0 {
			// The sum canonicalizes: duplicate names merge, zero
			// coefficients drop, variables sort. Decoding therefore
			// accepts any byte-level spelling but always yields the
			// canonical term. Each sum is built from the one before it,
			// in the other buffer.
			l = b[sums%2].sum(l, coef, Lin{Vars: []lang.Var{lang.Var(name)}, Coefs: unitCoef[:]})
			sums++
		}
	}
	return l, pos, nil
}
