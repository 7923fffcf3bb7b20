package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prov"
	"repro/internal/punch/maymust"
	"repro/internal/store"
)

// corpusPrograms loads every corpus program with its expected verdict.
func corpusPrograms(t *testing.T) map[string]Verdict {
	t.Helper()
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	out := map[string]Verdict{}
	for _, f := range files {
		name := filepath.Base(f)
		switch {
		case strings.HasPrefix(name, "safe_"):
			out[f] = Safe
		case strings.HasPrefix(name, "bug_"):
			out[f] = ErrorReachable
		default:
			t.Fatalf("corpus file %s has no verdict prefix", name)
		}
	}
	return out
}

// TestProvSmoke is the prov-smoke gate (`make prov-smoke`): on every
// corpus program, all three engines produce a provenance record that
// verifies (non-empty cone containing the root, closed under spawn and
// dependency edges, consistent warm accounting) and whose canonical
// bytes are identical across barrier, async, and distributed schedules
// — the procedure-granularity schedule-invariance claim.
func TestProvSmoke(t *testing.T) {
	for f, want := range corpusPrograms(t) {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			q0 := AssertionQuestion(prog)
			type run struct {
				engine  string
				verdict Verdict
				stable  []byte
			}
			var runs []run
			// The registry's counter and the record's own total are two
			// folds over the same summary events; a run that reports them
			// apart took them from two places.
			checkReads := func(engine string, snap *obs.Snapshot, p *prov.Provenance) {
				t.Helper()
				if got := snap.Counters["prov_summary_reads"]; got != p.SummaryReads {
					t.Errorf("%s: metrics counter prov_summary_reads = %d, Provenance.SummaryReads = %d",
						engine, got, p.SummaryReads)
				}
			}
			for _, engine := range []string{"barrier", "async"} {
				res := New(prog, Options{
					Punch:             maymust.New(),
					MaxThreads:        8,
					MaxIterations:     60000,
					Async:             engine == "async",
					CheckContract:     true,
					CollectProvenance: true,
					Metrics:           obs.NewMetrics(),
				}).Run(q0)
				if res.Verdict != want {
					t.Fatalf("%s: verdict %v, want %v", engine, res.Verdict, want)
				}
				if res.Provenance == nil {
					t.Fatalf("%s: no provenance recorded", engine)
				}
				if err := res.Provenance.Verify(); err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				checkReads(engine, res.Metrics, res.Provenance)
				runs = append(runs, run{engine, res.Verdict, res.Provenance.StableBytes()})
			}
			dres := NewDistributed(prog, DistOptions{
				Punch:             maymust.New(),
				Nodes:             3,
				ThreadsPerNode:    4,
				CollectProvenance: true,
				Metrics:           obs.NewMetrics(),
			}).Run(q0)
			if dres.Verdict != want {
				t.Fatalf("dist: verdict %v, want %v", dres.Verdict, want)
			}
			if dres.Provenance == nil {
				t.Fatal("dist: no provenance recorded")
			}
			if err := dres.Provenance.Verify(); err != nil {
				t.Fatalf("dist: %v", err)
			}
			checkReads("dist", dres.Metrics, dres.Provenance)
			runs = append(runs, run{"dist", dres.Verdict, dres.Provenance.StableBytes()})

			for _, r := range runs[1:] {
				if !bytes.Equal(runs[0].stable, r.stable) {
					t.Errorf("provenance differs between %s and %s:\n%s\n%s",
						runs[0].engine, r.engine, runs[0].stable, r.stable)
				}
			}
		})
	}
}

// TestConeInvalidationConfluence validates the invalidation-cone claim
// the explain report is built on: after an edit to procedure p, it is
// enough to discard the summaries of procedures in prov.Cone(p) — a
// warm re-check from the remaining store reaches the same verdict as a
// from-scratch run. The edit is simulated on every procedure of every
// corpus program's cone, which is the conservative direction: the kept
// summaries are exactly the ones the cone analysis says may be trusted.
func TestConeInvalidationConfluence(t *testing.T) {
	for f, want := range corpusPrograms(t) {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			q0 := AssertionQuestion(prog)
			opts := func(st store.Store) Options {
				return Options{
					Punch:             maymust.New(),
					MaxThreads:        8,
					MaxIterations:     60000,
					Store:             st,
					CollectProvenance: true,
				}
			}

			// Cold run populates the store and records provenance.
			st := store.NewMem()
			cold := New(prog, opts(st)).Run(q0)
			if cold.Verdict != want || cold.StoreErr != nil {
				t.Fatalf("cold: verdict %v (want %v), store err %v", cold.Verdict, want, cold.StoreErr)
			}
			all, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}

			for _, edited := range cold.Provenance.Procedures {
				cone := cold.Provenance.Cone(edited)
				stale := map[string]bool{}
				for _, proc := range cone.Procedures {
					stale[proc] = true
				}
				// Invalidate the cone: keep only summaries of procedures the
				// cone analysis says an edit to `edited` cannot affect.
				kept := store.NewMem()
				for _, s := range all {
					if !stale[s.Proc] {
						if _, err := kept.Put(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				warm := New(prog, opts(kept)).Run(q0)
				if warm.Verdict != cold.Verdict {
					t.Errorf("edit %s: warm verdict %v after cone invalidation, from-scratch says %v",
						edited, warm.Verdict, cold.Verdict)
				}
				if warm.StoreErr != nil {
					t.Errorf("edit %s: store err %v", edited, warm.StoreErr)
				}
			}
		})
	}
}
