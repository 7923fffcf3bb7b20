package logic

import "fmt"

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
