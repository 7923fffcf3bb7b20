package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

func sum(proc string, k int64) summary.Summary {
	x := logic.LinVar("x")
	return summary.Summary{
		Kind: summary.NotMay,
		Proc: proc,
		Pre:  logic.LE(x.AddConst(-k)),
		Post: logic.EQ(x.AddConst(k)),
	}
}

func keysOf(t *testing.T, sums []summary.Summary) []string {
	t.Helper()
	var keys []string
	for _, s := range sums {
		k, err := wire.SummaryKey(s)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, fmt.Sprintf("%x", k))
	}
	sort.Strings(keys)
	return keys
}

func sameSet(t *testing.T, got, want []summary.Summary) {
	t.Helper()
	g, w := keysOf(t, got), keysOf(t, want)
	if len(g) != len(w) {
		t.Fatalf("got %d summaries, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("summary sets differ at %d:\n %s\n %s", i, g[i], w[i])
		}
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog-a")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	var put []summary.Summary
	for i := 0; i < 5; i++ {
		s := sum(fmt.Sprintf("proc%d", i%3), int64(i))
		put = append(put, s)
		added, err := d.Put(s)
		if err != nil {
			t.Fatal(err)
		}
		if !added {
			t.Fatalf("Put #%d reported duplicate", i)
		}
	}
	// Duplicate put is a no-op.
	if added, err := d.Put(put[0]); err != nil || added {
		t.Fatalf("duplicate Put: added=%v err=%v", added, err)
	}
	if d.Count() != 5 {
		t.Fatalf("Count = %d, want 5", d.Count())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything persisted survives the process boundary.
	d2, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, put)

	// Summaries, provenance and manifest share the one file.
	if err := d2.PutProv(provRec("main", "barrier")); err != nil {
		t.Fatal(err)
	}
	if err := d2.PutManifest(map[string]store.Fingerprint{"main": fp}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != store.SegName {
		t.Fatalf("closed store directory holds %v, want only %s", ents, store.SegName)
	}
}

func TestDiskRejectsStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.NewFingerprint("test", "prog-a"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(sum("p", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = store.OpenDisk(dir, store.NewFingerprint("test", "prog-b"), false)
	var mm *store.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("opening with a different fingerprint: %v, want *MismatchError", err)
	}

	// reset=true is the explicit escape hatch: recreate empty.
	d2, err := store.OpenDisk(dir, store.NewFingerprint("test", "prog-b"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Count() != 0 {
		t.Fatalf("reset store has %d summaries, want 0", d2.Count())
	}
	got, err := d2.Load()
	if err != nil || len(got) != 0 {
		t.Fatalf("reset store Load = %v, %v", got, err)
	}
}

func TestDiskTrimsCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Put(sum("p", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a record at the tail.
	seg := filepath.Join(dir, store.SegName)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x53, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatalf("reopen after truncated tail: %v", err)
	}
	defer d2.Close()
	if d2.Count() != 3 {
		t.Fatalf("Count = %d after tail trim, want 3", d2.Count())
	}
	// The trim is physical: a third reopen sees a clean segment.
	got, err := d2.Load()
	if err != nil || len(got) != 3 {
		t.Fatalf("Load after trim = %d summaries, %v", len(got), err)
	}
}

func TestDiskRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("test", "prog")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Put(sum("p", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, store.SegName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (just past the 41-byte
	// header and the record's 1-byte length prefix): the crc must catch
	// it.
	data[43] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *store.CorruptError
	if _, err := store.OpenDisk(dir, fp, false); !errors.As(err, &ce) {
		t.Fatalf("opening a store with a corrupt interior record: %v, want *CorruptError", err)
	}
}

// TestDiskRefusesVolatileKeys: the disk encoder is a durability choke
// point — a summary carrying a process-local logic.Key in its proc field
// is refused before any byte reaches the segment.
func TestDiskRefusesVolatileKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.NewFingerprint("test"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := sum("p", 1)
	s.Proc = logic.Key(s.Pre) // "#<intern-id>"
	if _, err := d.Put(s); !errors.Is(err, wire.ErrVolatileKey) {
		t.Fatalf("Put with volatile proc key: %v, want ErrVolatileKey", err)
	}
	if d.Count() != 0 {
		t.Fatalf("refused Put still counted: %d", d.Count())
	}
}

// TestMemMatchesDisk: the in-memory backend implements the same
// contract — dedup by canonical key, Load returns everything Put.
func TestMemMatchesDisk(t *testing.T) {
	m := store.NewMem()
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.NewFingerprint("test"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var put []summary.Summary
	for i := 0; i < 4; i++ {
		s := sum(fmt.Sprintf("p%d", i%2), int64(i))
		put = append(put, s)
		for _, st := range []store.Store{m, d} {
			added, err := st.Put(s)
			if err != nil || !added {
				t.Fatalf("Put: added=%v err=%v", added, err)
			}
			if added, _ := st.Put(s); added {
				t.Fatal("duplicate Put reported added")
			}
		}
	}
	if m.Count() != d.Count() {
		t.Fatalf("Mem count %d != Disk count %d", m.Count(), d.Count())
	}
	ml, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	dl, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, ml, put)
	sameSet(t, dl, put)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	s := put[0]
	s.Proc = logic.Key(s.Pre)
	if _, err := m.Put(s); !errors.Is(err, wire.ErrVolatileKey) {
		t.Fatalf("Mem accepted a volatile key: %v", err)
	}
}
