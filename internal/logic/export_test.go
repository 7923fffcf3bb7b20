package logic

import (
	"fmt"

	"repro/internal/lang"
)

// DecodeWireAll is DecodeWire requiring the whole buffer to be one
// formula with no trailing bytes.
func DecodeWireAll(buf []byte) (Formula, error) {
	f, n, err := DecodeWire(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("logic: wire: %d trailing bytes after formula", len(buf)-n)
	}
	return f, nil
}

// WireBytes returns the canonical wire encoding of f.
func WireBytes(f Formula) []byte {
	return AppendWire(nil, f)
}

// Subst returns l with every occurrence of v replaced by r, in memory of
// its own.
func (l Lin) Subst(v lang.Var, r Lin) Lin {
	var b [2]termBuf
	return l.subst(v, r, &b).clone()
}

// DropTable drops the intern table as the end of the last run does.
func DropTable() { dropTable() }
