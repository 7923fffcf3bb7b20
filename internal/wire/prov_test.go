package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func testProvRecord() wire.ProvRecord {
	return wire.ProvRecord{
		Root:    "main",
		Verdict: "Program is Safe",
		Engine:  "async",
		RootKey: "\x51qkey-bytes",
		Deps: map[string][]string{
			"main":  {"other", "p"},
			"other": {"p"},
		},
	}
}

func TestProvRoundTrip(t *testing.T) {
	p := testProvRecord()
	b, err := wire.AppendProv(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := wire.DecodeProv(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", got, p)
	}
}

func TestProvRefusesVolatileDep(t *testing.T) {
	p := testProvRecord()
	p.Deps["main"] = append(p.Deps["main"], "#17")
	if _, err := wire.AppendProv(nil, p); err == nil {
		t.Fatal("volatile dep name must be rejected")
	}
}

func TestTombstoneRoundTrip(t *testing.T) {
	b, err := wire.AppendTombstone(nil, "deadproc")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != wire.TagTomb {
		t.Fatalf("tombstone starts with tag %#x, want %#x", b[0], wire.TagTomb)
	}
	proc, n, err := wire.DecodeTombstone(b)
	if err != nil || n != len(b) || proc != "deadproc" {
		t.Fatalf("decode = %q, %d, %v", proc, n, err)
	}
	if _, err := wire.AppendTombstone(nil, "#9"); err == nil {
		t.Fatal("volatile proc name must be rejected")
	}
	if _, _, err := wire.DecodeTombstone([]byte{0x53, 0x01, 'x'}); err == nil {
		t.Fatal("summary tag accepted as tombstone")
	}
	sb, err := wire.AppendSummary(nil, testSummary())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.DecodeTombstone(sb); err == nil {
		t.Fatal("summary record decoded as a tombstone")
	}
}

// TestProvHeaderOnlyRoundTrip: a record with neither a root key nor an
// adjacency round-trips.
func TestProvHeaderOnlyRoundTrip(t *testing.T) {
	p := wire.ProvRecord{Root: "main", Verdict: "v", Engine: "barrier"}
	b, err := wire.AppendProv(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := wire.DecodeProv(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("decoded %+v", got)
	}
}

func TestProvRefusesVolatileRoot(t *testing.T) {
	p := testProvRecord()
	p.Root = "#42" // process-local interned key render
	if _, err := wire.AppendProv(nil, p); err == nil {
		t.Fatal("volatile root string must be rejected")
	}
}

func TestDecodeProvRejectsGarbage(t *testing.T) {
	good, err := wire.AppendProv(nil, testProvRecord())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"wrong tag": {0x51, 0x00},
		"truncated": good[:len(good)-3],
		"short hdr": good[:2],
	}
	for name, buf := range cases {
		if _, _, err := wire.DecodeProv(buf); err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
	}
	for k := 0; k < len(good); k++ {
		if _, _, err := wire.DecodeProv(good[:k]); err == nil {
			t.Fatalf("a record cut to %d of %d bytes decoded", k, len(good))
		}
	}
}

// TestProvWithDeps: replacing a record's adjacency keeps every byte ahead
// of it and encodes as AppendProv would have encoded the record with the
// new adjacency.
func TestProvWithDeps(t *testing.T) {
	p := testProvRecord()
	old, err := wire.AppendProv(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Deps = map[string][]string{"main": {"p", "other", "q"}, "q": {"r"}}
	want, err := wire.AppendProv(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.ProvWithDeps(old, p.Deps)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ProvWithDeps = %x, %v; want %x", got, err, want)
	}
	if _, err := wire.ProvWithDeps(append(old, 0), p.Deps); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := wire.ProvWithDeps(old, map[string][]string{"#7": nil}); err == nil {
		t.Fatal("volatile procedure name accepted")
	}
}
