package wire_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/summary"
	"repro/internal/wire"
)

func testProvRecord() wire.ProvRecord {
	s := testSummary()
	t := testSummary()
	t.Proc = "other"
	t.Kind = summary.Must
	return wire.ProvRecord{
		Root:    "main",
		Verdict: "Program is Safe",
		Engine:  "async",
		Reads: []wire.ProvRead{
			{Summary: s, Warm: true, Count: 3},
			{Summary: t, Warm: false, Count: 1},
		},
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
	got, n, err := wire.DecodeProv(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if got.Root != p.Root || got.Verdict != p.Verdict || got.Engine != p.Engine {
		t.Fatalf("header changed: %+v", got)
	}
	if len(got.Reads) != 2 {
		t.Fatalf("got %d reads, want 2", len(got.Reads))
	}
	for i, r := range got.Reads {
		want := p.Reads[i]
		if r.Warm != want.Warm || r.Count != want.Count || r.Summary.Proc != want.Summary.Proc {
			t.Fatalf("read %d changed: %+v want %+v", i, r, want)
		}
		if string(logic.AppendWire(nil, r.Summary.Pre)) != string(logic.AppendWire(nil, want.Summary.Pre)) {
			t.Fatalf("read %d precondition changed across round trip", i)
		}
	}
	if got.RootKey != p.RootKey {
		t.Fatalf("root key changed: %q want %q", got.RootKey, p.RootKey)
	}
	if len(got.Deps) != 2 || strings.Join(got.Deps["main"], ",") != "other,p" ||
		strings.Join(got.Deps["other"], ",") != "p" {
		t.Fatalf("deps changed: %v", got.Deps)
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

func TestProvEmptyReadSet(t *testing.T) {
	p := wire.ProvRecord{Root: "main", Verdict: "v", Engine: "barrier"}
	b, err := wire.AppendProv(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := wire.DecodeProv(b, true)
	if err != nil || n != len(b) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.Root != "main" || len(got.Reads) != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestProvRefusesUndurableSummary(t *testing.T) {
	p := testProvRecord()
	p.Reads[0].Summary.Pre = nil // scripted-test summary: not durable
	if _, err := wire.AppendProv(nil, p); err == nil {
		t.Fatal("nil-formula summary must be rejected")
	}
	p = testProvRecord()
	p.Reads[0].Count = -1
	if _, err := wire.AppendProv(nil, p); err == nil {
		t.Fatal("negative read count must be rejected")
	}
	p = testProvRecord()
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
		if _, _, err := wire.DecodeProv(buf, true); err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
	}
	// Flipping the warm flag byte to an out-of-range value must fail,
	// not silently decode.
	mut := append([]byte(nil), good...)
	idx := strings.Index(string(mut), "async") + len("async")
	mut[idx+1] = 7 // first read's warm byte follows the count uvarint
	if _, _, err := wire.DecodeProv(mut, true); err == nil {
		t.Fatal("bad warm flag accepted")
	}
}

// TestDecodeProvWithoutReads: a caller that declines the read set gets
// every other field as the full decode gives it, steps over the same
// bytes, and is refused on exactly the inputs the full decode refuses,
// including a read whose formula is malformed.
func TestDecodeProvWithoutReads(t *testing.T) {
	good, err := wire.AppendProv(nil, testProvRecord())
	if err != nil {
		t.Fatal(err)
	}
	full, n, err := wire.DecodeProv(good, true)
	if err != nil {
		t.Fatal(err)
	}
	heads, hn, err := wire.DecodeProv(good, false)
	if err != nil || hn != n {
		t.Fatalf("without reads: consumed %d (%v), full decode %d", hn, err, n)
	}
	full.Reads = nil
	if !reflect.DeepEqual(heads, full) {
		t.Fatalf("without reads decoded %+v, want %+v", heads, full)
	}
	bad := append([]byte(nil), good...)
	pre := strings.Index(string(bad), "worker") + len("worker") // the first read's precondition
	if pre < len("worker") {
		t.Fatal("no read summary to damage")
	}
	bad[pre] = 0x7f // an unknown formula tag
	variants := [][]byte{bad}
	for k := 0; k < len(good); k++ {
		variants = append(variants, good[:k])
	}
	for i, buf := range variants {
		_, _, ferr := wire.DecodeProv(buf, true)
		_, _, herr := wire.DecodeProv(buf, false)
		if (ferr == nil) != (herr == nil) {
			t.Fatalf("variant %d: full decode says %v, without reads %v", i, ferr, herr)
		}
	}
	if _, _, err := wire.DecodeProv(bad, false); err == nil {
		t.Fatal("a read with a malformed formula passed")
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
