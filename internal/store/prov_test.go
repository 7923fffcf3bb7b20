package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
)

func provRec(root, engine string) wire.ProvRecord {
	return wire.ProvRecord{Root: root, Verdict: "Program is Safe", Engine: engine,
		Deps: map[string][]string{root: {"callee"}, "callee": {}}}
}

func TestDiskProvSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog-a")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	// No provenance reads as empty, not as an error.
	if recs, err := d.LoadProv(); err != nil || len(recs) != 0 {
		t.Fatalf("fresh store LoadProv = %v, %v", recs, err)
	}
	if err := d.PutProv(provRec("main", "barrier")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "async")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Records survive the process boundary, oldest first.
	d2, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recs, err := d2.LoadProv()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !reflect.DeepEqual(recs[0], provRec("main", "barrier")) || !reflect.DeepEqual(recs[1], provRec("main", "async")) {
		t.Fatalf("LoadProv = %+v", recs)
	}
}

func TestDiskProvTrimsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog-a")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "barrier")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(sum("main", 7)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "async")); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Chop bytes off the final record — a provenance record — as a crash
	// would.
	path := filepath.Join(dir, store.SegName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recs, err := d2.LoadProv()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Engine != "barrier" {
		t.Fatalf("truncated tail: got %+v, want the intact first record", recs)
	}
	if d2.Count() != 1 {
		t.Fatalf("the summary ahead of the torn record was lost: Count = %d", d2.Count())
	}
}

func TestResetDiscardsProvenance(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog-a")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "barrier")); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Re-open under a different program with reset: the old store is
	// discarded, and its provenance (about summaries that no longer
	// exist) must go with it.
	d2, err := store.OpenDisk(dir, store.NewFingerprint("test", "prog-b"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if recs, err := d2.LoadProv(); err != nil || len(recs) != 0 {
		t.Fatalf("after reset LoadProv = %v, %v", recs, err)
	}
}

func TestMemProvMatchesDisk(t *testing.T) {
	m := store.NewMem()
	if recs, err := m.LoadProv(); err != nil || len(recs) != 0 {
		t.Fatalf("fresh Mem LoadProv = %v, %v", recs, err)
	}
	if err := m.PutProv(provRec("main", "dist")); err != nil {
		t.Fatal(err)
	}
	recs, err := m.LoadProv()
	if err != nil || len(recs) != 1 {
		t.Fatalf("LoadProv = %v, %v", recs, err)
	}
	if !reflect.DeepEqual(recs[0], provRec("main", "dist")) {
		t.Fatalf("record changed: %+v", recs[0])
	}
	// Mem applies the same durability guard as Disk.
	bad := provRec("main", "dist")
	bad.Deps["#3"] = nil // a process-local formula key render
	if err := m.PutProv(bad); err == nil {
		t.Fatal("Mem must reject undurable records")
	}
}

// TestOpenFoldsSupersededProv: the rewrite an open makes keeps one
// provenance record per root question, the newest, in its place, with the
// union of the adjacencies of every record of that question; records of
// other questions, and records without a root key,
// stay as they were. An open of the folded log leaves it byte for byte.
func TestOpenFoldsSupersededProv(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("fold")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	keyed := func(key, verdict string, deps map[string][]string) wire.ProvRecord {
		rec := provRec("main", "barrier")
		rec.RootKey, rec.Verdict, rec.Deps = key, verdict, deps
		return rec
	}
	for _, rec := range []wire.ProvRecord{
		keyed("qa", "Program is Safe", map[string][]string{"main": {"a"}, "a": {"x"}}),
		keyed("qb", "Program is Safe", map[string][]string{"main": {"b"}}),
		keyed("qa", "retracted", nil),
		provRec("main", "async"), // no root key: never folded
		keyed("qa", "Error Reachable", map[string][]string{"main": {"c"}, "sub": {"d"}}),
	} {
		if err := d.PutProv(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = store.OpenDisk(dir, fp, false); err != nil {
		t.Fatal(err)
	}
	recs, err := d.LoadProv()
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s %s %s deps=%v", r.RootKey, r.Engine, r.Verdict, r.Deps))
	}
	want := []string{
		"qb barrier Program is Safe deps=map[main:[b]]",
		" async Program is Safe deps=map[callee:[] main:[callee]]",
		"qa barrier Error Reachable deps=map[a:[x] main:[a c] sub:[d]]",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the fold:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	path := filepath.Join(dir, store.SegName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("an open of a folded log rewrote it")
	}
}

// TestLoadReportsDamagedFormula: a summary record whose checksum holds
// over formulas that do not decode opens, counts, and is reported by Load
// as a *CorruptError; the open reads only its procedure.
func TestLoadReportsDamagedFormula(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("damaged")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(sum("a", 1)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	payload, err := wire.AppendSummary(nil, sum("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	payload[2+1+len("b")] = 0x7f // the precondition's tag: no formula has it
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	path := filepath.Join(dir, store.SegName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if d.Count() != 2 {
		t.Fatalf("Count = %d, want 2", d.Count())
	}
	sums, err := d.Load()
	var ce *store.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Load = %d summaries, %v; want a *CorruptError", len(sums), err)
	}
	// Deleting the damaged procedure's summaries clears the fault.
	if _, err := d.DeleteProcs([]string{"b"}); err != nil {
		t.Fatal(err)
	}
	if sums, err := d.Load(); err != nil || len(sums) != 1 {
		t.Fatalf("after deleting b: Load = %d summaries, %v", len(sums), err)
	}
}
