// The crash model of the record log, exercised byte by byte: every
// truncation reopens to the state after some prefix of the records
// appended, every flipped byte is a typed error (or a trimmed last
// record), arbitrary bytes never panic, and the directory lock makes a
// second handle fail typed.

package store_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/summary"
)

const headerSize = 8 + 1 + 32 // magic, version, fingerprint

var logFP = store.NewFingerprint("log-test")

// state is everything a store answers reads from.
type state struct {
	sums string // sorted sumKeys, one per line
	man  string // sorted manifest entries, "" when none
	prov int
}

func sumKey(s summary.Summary) string { return fmt.Sprintf("%s: %v", s.Proc, s.Pre) }

func (st state) has(s summary.Summary) bool {
	for _, k := range strings.Split(st.sums, "\n") {
		if k == sumKey(s) {
			return true
		}
	}
	return false
}

func stateOf(t testing.TB, d *store.Disk) state {
	t.Helper()
	sums, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != d.Count() {
		t.Fatalf("Load returned %d summaries, Count says %d", len(sums), d.Count())
	}
	var keys []string
	for _, s := range sums {
		keys = append(keys, sumKey(s))
	}
	sort.Strings(keys)
	man, _, err := d.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	var ents []string
	for p, fp := range man {
		ents = append(ents, p+"="+fp.String())
	}
	sort.Strings(ents)
	recs, err := d.LoadProv()
	if err != nil {
		t.Fatal(err)
	}
	return state{sums: strings.Join(keys, "\n"), man: strings.Join(ents, " "), prov: len(recs)}
}

var (
	oldManifest = map[string]store.Fingerprint{"a": store.NewFingerprint("a1"), "b": store.NewFingerprint("b1"), "c": store.NewFingerprint("c1")}
	newManifest = map[string]store.Fingerprint{"a": store.NewFingerprint("a2"), "b": store.NewFingerprint("b1"), "c": store.NewFingerprint("c2")}
)

// buildLog writes the log of one invalidating re-check, one record per
// step — M S S S S S S T T M S S P — and returns its bytes, the offset
// at which each record ends (ends[0] is the header's), and the store's
// state at each of those offsets.
func buildLog(t testing.TB) (data []byte, ends []int, states []state) {
	t.Helper()
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	put := func(proc string, k int64) func() error {
		return func() error { _, err := d.Put(sum(proc, k)); return err }
	}
	del := func(proc string) func() error {
		return func() error { _, err := d.DeleteProcs([]string{proc}); return err }
	}
	steps := []func() error{
		func() error { return d.PutManifest(oldManifest, nil) },
		put("a", 0), put("a", 1), put("b", 2), put("b", 3), put("c", 4), put("c", 5),
		del("a"), del("c"),
		func() error { return d.PutManifest(newManifest, nil) },
		put("a", 6), put("c", 7),
		func() error { return d.PutProv(provRec("main", "barrier")) },
	}
	path := filepath.Join(dir, store.SegName)
	mark := func() {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ends); n > 0 && int(fi.Size()) <= ends[n-1] {
			t.Fatalf("step %d appended nothing", n)
		}
		ends = append(ends, int(fi.Size()))
		states = append(states, stateOf(t, d))
	}
	mark()
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		mark()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if ends[0] != headerSize || ends[len(ends)-1] != len(data) {
		t.Fatalf("log spans %d..%d, file is %d bytes", ends[0], ends[len(ends)-1], len(data))
	}
	return data, ends, states
}

// recordsWithin is the number of whole records in data[:n].
func recordsWithin(ends []int, n int) int {
	return sort.SearchInts(ends, n+1) - 1
}

// reopen plants data as the log of dir and opens it.
func reopen(t testing.TB, dir string, data []byte) (*store.Disk, error) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, store.SegName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return store.OpenDisk(dir, logFP, false)
}

func typed(err error) bool {
	var ce *store.CorruptError
	var mm *store.MismatchError
	return errors.As(err, &ce) || errors.As(err, &mm)
}

// TestCrashSweep cuts the log at every byte offset. Past the header no
// cut is an error, and what reopens is exactly the state after the
// records that fit — so never the new manifest beside the summaries the
// tombstones ahead of it deleted.
func TestCrashSweep(t *testing.T) {
	data, ends, states := buildLog(t)
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		d, err := reopen(t, dir, data[:cut])
		if cut < headerSize {
			var ce *store.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("cut at %d (inside the header): %v, want *CorruptError", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		k := recordsWithin(ends, cut)
		got := stateOf(t, d)
		if got != states[k] {
			t.Fatalf("cut at %d: reopened to\n %+v\nwant the state after %d records\n %+v", cut, got, k, states[k])
		}
		if got.man == states[len(states)-1].man && (got.has(sum("a", 0)) || got.has(sum("c", 5))) {
			t.Fatalf("cut at %d: new manifest beside a summary it invalidated: %+v", cut, got)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// What the open left behind (trimmed, compacted) is itself a
		// valid log of the same state.
		d, err = store.OpenDisk(dir, logFP, false)
		if err != nil {
			t.Fatalf("cut at %d: second open: %v", cut, err)
		}
		if again := stateOf(t, d); again != got {
			t.Fatalf("cut at %d: second open changed the state:\n %+v\n %+v", cut, got, again)
		}
		d.Close()
	}
}

// TestByteFlipSweep inverts every byte of the log in turn. Damage is a
// typed error; the one exception is the last record, whose damaged
// length can pass for a torn tail and is then trimmed — every other
// record survives.
func TestByteFlipSweep(t *testing.T) {
	data, ends, states := buildLog(t)
	dir := t.TempDir()
	last := len(ends) - 2 // records before the last one
	for i := range data {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0xff
		d, err := reopen(t, dir, flipped)
		if err != nil {
			if !typed(err) {
				t.Fatalf("byte %d flipped: untyped error %v", i, err)
			}
			continue
		}
		got := stateOf(t, d)
		d.Close()
		if i < ends[last] {
			t.Fatalf("byte %d flipped (record %d of %d): opened cleanly as %+v", i, recordsWithin(ends, i), last+1, got)
		}
		if got != states[last] {
			t.Fatalf("byte %d flipped in the last record: reopened to %+v, want it trimmed to %+v", i, got, states[last])
		}
	}
}

// TestPutManifestEqualAppendsNothing: re-putting the live manifest
// leaves the log byte-identical; a different one appends.
func TestPutManifestEqualAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, store.SegName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := d.PutManifest(oldManifest, nil); err != nil {
		t.Fatal(err)
	}
	before := size()
	for i := 0; i < 3; i++ {
		if err := d.PutManifest(oldManifest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := size(); after != before {
		t.Fatalf("equal manifest grew the log: %d -> %d bytes", before, after)
	}
	if err := d.PutManifest(newManifest, nil); err != nil {
		t.Fatal(err)
	}
	if after := size(); after <= before {
		t.Fatalf("changed manifest appended nothing: %d -> %d bytes", before, after)
	}
}

// TestLegacyFormatTakesTheMismatchPath: a directory written by format
// version 1 is a typed mismatch that names -store-reset, and reset
// recreates it empty without the three sidecar files.
func TestLegacyFormatTakesTheMismatchPath(t *testing.T) {
	dir := t.TempDir()
	v1 := append([]byte("BOLTSEG1\x01"), logFP[:]...)
	v1 = append(v1, 0x03, 'S', 1, 2, 0, 0, 0, 0) // a version-1 record, never parsed
	if err := os.WriteFile(filepath.Join(dir, store.SegName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range store.LegacyNames {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("legacy"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := store.OpenDisk(dir, logFP, false)
	var mm *store.MismatchError
	if !errors.As(err, &mm) || mm.GotVersion != 1 {
		t.Fatalf("version-1 store without reset: %v, want *MismatchError with GotVersion 1", err)
	}
	if !strings.Contains(err.Error(), "-store-reset") || !strings.Contains(err.Error(), "format 1") {
		t.Fatalf("mismatch message names neither the format nor the way out: %v", err)
	}
	d, err := store.OpenDisk(dir, logFP, true)
	if err != nil {
		t.Fatalf("version-1 store with reset: %v", err)
	}
	if d.Count() != 0 {
		t.Fatalf("reset store holds %d summaries", d.Count())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != store.SegName {
		t.Fatalf("reset left %v, want only %s", ents, store.SegName)
	}
}

// TestOpenDiskIsExclusive: a second handle on a held directory fails
// with *BusyError; Close and every failed open release the lock.
func TestOpenDiskIsExclusive(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	var busy *store.BusyError
	if _, err := store.OpenDisk(dir, logFP, false); !errors.As(err, &busy) {
		t.Fatalf("second open of a held directory: %v, want *BusyError", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var mm *store.MismatchError
	if _, err := store.OpenDisk(dir, store.NewFingerprint("other"), false); !errors.As(err, &mm) {
		t.Fatalf("foreign fingerprint: %v, want *MismatchError", err)
	}
	d, err = store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatalf("open after Close and after a failed open: %v", err)
	}
	d.Close()
}

const holdEnv = "BOLT_STORE_TEST_HOLD"

// TestHelperHoldStore is the child of TestLockDiesWithItsProcess: it
// opens the store named by the environment, says so, and waits to be
// killed.
func TestHelperHoldStore(t *testing.T) {
	dir := os.Getenv(holdEnv)
	if dir == "" {
		t.Skip("helper for TestLockDiesWithItsProcess")
	}
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(sum("held", 1)); err != nil {
		t.Fatal(err)
	}
	fmt.Println("held")
	time.Sleep(time.Minute)
}

// TestLockDiesWithItsProcess: a process killed while it holds a store
// does not wedge the directory.
func TestLockDiesWithItsProcess(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperHoldStore$")
	cmd.Env = append(os.Environ(), holdEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	held := false
	for sc := bufio.NewScanner(out); sc.Scan(); {
		if strings.TrimSpace(sc.Text()) == "held" {
			held = true
			break
		}
	}
	if !held {
		t.Fatal("child exited without taking the store")
	}
	var busy *store.BusyError
	if _, err := store.OpenDisk(dir, logFP, false); !errors.As(err, &busy) {
		t.Fatalf("open while the child holds the store: %v, want *BusyError", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatalf("open after the holder was killed: %v", err)
	}
	defer d.Close()
	if d.Count() != 1 {
		t.Fatalf("the killed holder's appended summary: Count = %d, want 1", d.Count())
	}
}

// TestConcurrentMutation runs every mutating method on one handle at
// once (make race covers this package) and checks that what the handle
// reports is what a reopen replays.
func TestConcurrentMutation(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(4)
		proc := fmt.Sprintf("p%d", w)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := d.Put(sum(proc, int64(i)))
				fail(err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fail(d.PutProv(provRec(proc, "async")))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := d.DeleteProcs([]string{proc})
				fail(err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fail(d.PutManifest(map[string]store.Fingerprint{proc: store.NewFingerprint(proc, fmt.Sprint(i))}, nil))
				fail(d.Flush())
			}
		}()
	}
	wg.Wait()
	want := stateOf(t, d)
	if want.prov != workers*rounds {
		t.Fatalf("%d provenance records, want %d", want.prov, workers*rounds)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = store.OpenDisk(dir, logFP, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := stateOf(t, d); got != want {
		t.Fatalf("reopen replayed\n %+v\nthe handle reported\n %+v", got, want)
	}
}

// FuzzStoreOpen: arbitrary bytes as the log open cleanly or fail typed,
// and a clean open leaves a log that opens to the same state again.
func FuzzStoreOpen(f *testing.F) {
	data, ends, _ := buildLog(f)
	f.Add(data)
	f.Add(data[:ends[len(ends)-2]+3])
	f.Add(data[:headerSize])
	f.Add([]byte("BOLTSEG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		d, err := reopen(t, dir, log)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Summaries and provenance are decoded on demand, so a record
		// that carries a good checksum over bad bytes surfaces here,
		// typed.
		if _, err := d.Load(); err != nil && !typed(err) {
			t.Fatalf("Load: untyped error %v", err)
		}
		sums := d.Count()
		man, _, err := d.LoadManifest()
		if err != nil {
			t.Fatalf("LoadManifest after a clean open: %v", err)
		}
		recs, perr := d.LoadProv()
		if perr != nil && !typed(perr) {
			t.Fatalf("LoadProv: untyped error %v", perr)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, err = store.OpenDisk(dir, logFP, false)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer d.Close()
		man2, _, _ := d.LoadManifest()
		recs2, _ := d.LoadProv()
		if d.Count() != sums || len(man2) != len(man) || len(recs2) != len(recs) {
			t.Fatalf("second open: %d summaries, %d manifest entries, %d provenance records; first had %d, %d, %d",
				d.Count(), len(man2), len(recs2), sums, len(man), len(recs))
		}
	})
}

// TestOneFraming is a structural lint in the style of core's
// TestOneReduce: the package's non-test code computes a record checksum
// in exactly two places (framing and parsing) and renames a file in
// exactly one (the rewrite), so a second framing or a second
// replace-the-file path cannot grow back unnoticed.
func TestOneFraming(t *testing.T) {
	want := map[string]int{"crc32.ChecksumIEEE(": 2, "os.Rename(": 1}
	got := map[string]int{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for call := range want {
				got[call] += strings.Count(code, call)
			}
		}
	}
	for call, n := range want {
		if got[call] != n {
			t.Errorf("%s has %d call sites in non-test code, want %d", call, got[call], n)
		}
	}
}
