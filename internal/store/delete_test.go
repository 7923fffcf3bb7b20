package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/summary"
)

// fillStore puts 2 summaries each for procs a, b, c.
func fillStore(t *testing.T, st store.Store) []summary.Summary {
	t.Helper()
	var put []summary.Summary
	for i, proc := range []string{"a", "a", "b", "b", "c", "c"} {
		s := sum(proc, int64(i))
		put = append(put, s)
		if added, err := st.Put(s); err != nil || !added {
			t.Fatalf("Put %s#%d: added=%v err=%v", proc, i, added, err)
		}
	}
	return put
}

func survivors(sums []summary.Summary, dead map[string]bool) []summary.Summary {
	var out []summary.Summary
	for _, s := range sums {
		if !dead[s.Proc] {
			out = append(out, s)
		}
	}
	return out
}

// TestDeleteProcsParity runs the same invalidation sequence against
// both backends: DeleteProcs must behave identically.
func TestDeleteProcsParity(t *testing.T) {
	open := map[string]func(t *testing.T) store.Store{
		"mem": func(t *testing.T) store.Store { return store.NewMem() },
		"disk": func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir(), store.NewFingerprint("del-parity"), false)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			st := mk(t)
			defer st.Close()
			put := fillStore(t, st)
			removed, err := st.DeleteProcs([]string{"a", "c", "ghost"})
			if err != nil {
				t.Fatal(err)
			}
			if removed["a"] != 2 || removed["c"] != 2 || removed["ghost"] != 0 || len(removed) != 2 {
				t.Fatalf("removed = %v, want a:2 c:2", removed)
			}
			got, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, got, survivors(put, map[string]bool{"a": true, "c": true}))
			// Re-putting a deleted summary makes it live again.
			if added, err := st.Put(put[0]); err != nil || !added {
				t.Fatalf("re-Put after delete: added=%v err=%v", added, err)
			}
			// Delete-all (nil) empties the store.
			removed, err = st.DeleteProcs(nil)
			if err != nil {
				t.Fatal(err)
			}
			if removed["a"] != 1 || removed["b"] != 2 {
				t.Fatalf("delete-all removed %v, want a:1 b:2", removed)
			}
			got, err = st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("%d summaries survive delete-all", len(got))
			}
		})
	}
}

// TestDiskTombstoneReopenAndCompaction checks the on-disk lifecycle:
// tombstones persist the deletion across a reopen, the reopen compacts
// the segment (dead records and tombstones rewritten away), and the
// compacted store still round-trips.
func TestDiskTombstoneReopenAndCompaction(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("tomb")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	put := fillStore(t, d)
	if _, err := d.DeleteProcs([]string{"b"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, store.SegName)
	before, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}

	d, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, survivors(put, map[string]bool{"b": true}))
	if d.Count() != 4 {
		t.Fatalf("Count = %d after reopen, want 4", d.Count())
	}
	after, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("segment did not shrink on compaction: %d -> %d bytes", before.Size(), after.Size())
	}
	// The compacted store keeps working: put, flush, reopen again.
	s := sum("b", 99)
	if added, err := d.Put(s); err != nil || !added {
		t.Fatalf("Put after compaction: added=%v err=%v", added, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err = d.Load()
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, append(survivors(put, map[string]bool{"b": true}), s))
}

// TestDiskTombstoneThenRePutSameRun: a tombstone only kills records
// appended before it — a summary re-put after the delete survives the
// next scan.
func TestDiskTombstoneThenRePut(t *testing.T) {
	dir := t.TempDir()
	fp := store.NewFingerprint("tomb-reput")
	d, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	put := fillStore(t, d)
	if _, err := d.DeleteProcs([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if added, err := d.Put(put[1]); err != nil || !added {
		t.Fatalf("re-Put: added=%v err=%v", added, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, append(survivors(put, map[string]bool{"a": true}), put[1]))
}

// TestManifestParity round-trips a manifest through both backends and
// checks the missing-manifest and cross-fingerprint cases.
func TestManifestParity(t *testing.T) {
	man := map[string]store.Fingerprint{
		"main": store.NewFingerprint("m1"),
		"aux":  store.NewFingerprint("m2"),
	}
	mod := map[string][]string{"main": {"g", "h"}, "aux": {"h"}}
	same := func(got map[string]store.Fingerprint, gotMod map[string][]string) bool {
		return len(got) == 2 && got["main"] == man["main"] && got["aux"] == man["aux"] &&
			fmt.Sprint(gotMod) == fmt.Sprint(mod)
	}
	t.Run("mem", func(t *testing.T) {
		m := store.NewMem()
		got, _, err := m.LoadManifest()
		if err != nil || got != nil {
			t.Fatalf("fresh store manifest = %v, %v; want nil, nil", got, err)
		}
		if err := m.PutManifest(man, mod); err != nil {
			t.Fatal(err)
		}
		got, gotMod, err := m.LoadManifest()
		if err != nil || !same(got, gotMod) {
			t.Fatalf("manifest round trip = %v, %v, %v", got, gotMod, err)
		}
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		fp := store.NewFingerprint("man")
		d, err := store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := d.LoadManifest()
		if err != nil || got != nil {
			t.Fatalf("fresh store manifest = %v, %v; want nil, nil", got, err)
		}
		// A manifest without Mod sets, as stores written before they were
		// recorded hold, reads back with none.
		if err := d.PutManifest(man, nil); err != nil {
			t.Fatal(err)
		}
		if got, gotMod, err := d.LoadManifest(); err != nil || len(got) != 2 || gotMod != nil {
			t.Fatalf("manifest without Mod sets = %v, %v, %v", got, gotMod, err)
		}
		if err := d.PutManifest(man, mod); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = store.OpenDisk(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		got, gotMod, err := d.LoadManifest()
		if err != nil || !same(got, gotMod) {
			t.Fatalf("manifest round trip = %v, %v, %v", got, gotMod, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// A reset segment discards the manifest with the summaries.
		d, err = store.OpenDisk(dir, store.NewFingerprint("other"), true)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		got, _, err = d.LoadManifest()
		if err != nil || got != nil {
			t.Fatalf("manifest survived a store reset: %v, %v", got, err)
		}
	})
}
