package bolt_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	bolt "repro"
)

var updateProv = flag.Bool("update-prov", false, "rewrite testdata/prov_pin.golden from this run")

// TestProvPin holds the provenance of every corpus program under the may
// and the may-must analysis, on the one-thread barrier engine, to the
// bytes of testdata/prov_pin.golden: the whole WriteJSON record — cone,
// dependency and spawn adjacency, every summary with its traffic, and the
// counters. A change to how provenance is gathered passes untouched; one
// that moves it on purpose regenerates the file (go test -run TestProvPin
// -update-prov .) and says what moved.
func TestProvPin(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.bolt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	sort.Strings(files)
	var got bytes.Buffer
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := bolt.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, a := range []bolt.Analysis{bolt.May, bolt.MayMust} {
			r := prog.Check(bolt.Options{Analysis: a, Threads: 1, MaxVirtualTicks: trajBudget, CollectProvenance: true})
			fmt.Fprintf(&got, "== %s %s\n", filepath.Base(f), a)
			if err := r.Provenance.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
		}
	}

	golden := filepath.Join("testdata", "prov_pin.golden")
	if *updateProv {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("provenance moved at line %d:\n got  %s\n want %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("provenance moved: %d lines, golden has %d", len(g), len(w))
	}
}
