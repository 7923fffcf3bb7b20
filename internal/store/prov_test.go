package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
)

func provRec(root, engine string, n int) wire.ProvRecord {
	rec := wire.ProvRecord{Root: root, Verdict: "Program is Safe", Engine: engine}
	for i := 0; i < n; i++ {
		rec.Reads = append(rec.Reads, wire.ProvRead{
			Summary: sum(root, int64(i)), Warm: i%2 == 0, Count: int64(i + 1),
		})
	}
	return rec
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
	if err := d.PutProv(provRec("main", "barrier", 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "async", 1)); err != nil {
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
	if len(recs) != 2 || recs[0].Engine != "barrier" || recs[1].Engine != "async" {
		t.Fatalf("LoadProv = %+v", recs)
	}
	if len(recs[0].Reads) != 2 || !recs[0].Reads[0].Warm || recs[0].Reads[0].Count != 1 {
		t.Fatalf("read set lost: %+v", recs[0].Reads)
	}
}

func TestDiskProvTrimsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog-a")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "barrier", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(sum("main", 7)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutProv(provRec("main", "async", 1)); err != nil {
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
	if err := d.PutProv(provRec("main", "barrier", 1)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Re-open under a different program with reset: the old store is
	// discarded, and its provenance (which refers to summaries that no
	// longer exist) must go with it.
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
	if err := m.PutProv(provRec("main", "dist", 2)); err != nil {
		t.Fatal(err)
	}
	recs, err := m.LoadProv()
	if err != nil || len(recs) != 1 {
		t.Fatalf("LoadProv = %v, %v", recs, err)
	}
	if recs[0].Engine != "dist" || len(recs[0].Reads) != 2 {
		t.Fatalf("record changed: %+v", recs[0])
	}
	// Mem applies the same durability guard as Disk.
	bad := provRec("main", "dist", 1)
	bad.Reads[0].Summary.Pre = nil
	if err := m.PutProv(bad); err == nil {
		t.Fatal("Mem must reject undurable records")
	}
}
