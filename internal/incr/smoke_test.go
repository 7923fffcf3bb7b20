// The incr-smoke gate (`make incr-smoke`): on every corpus program and
// every engine, mutate each procedure once in an edit session and
// re-check incrementally; every step's verdict must be confluent with a
// from-scratch run on the edited program. This is the end-to-end
// soundness check for cone-based invalidation — an unsound cone would
// leave a stale summary alive and flip a verdict.
package incr_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/parser"
)

func TestIncrSmoke(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		name := filepath.Base(f)
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		steps := len(prog.ProcNames())
		for _, engine := range []string{"barrier", "async", "dist"} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				session, err := harness.RunEditSession(name, src, steps, 41, 8, engine, harness.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(session) != steps {
					t.Fatalf("ran %d steps, want %d", len(session), steps)
				}
				invalidations := 0
				for i, s := range session {
					if s.Err != nil {
						t.Fatalf("step %d (%s): %v", i, s.Proc, s.Err)
					}
					if !s.Confluent {
						t.Fatalf("step %d (%s): re-check %v, from-scratch %v",
							i, s.Proc, s.RecheckVerdict, s.ColdVerdict)
					}
					invalidations += s.Invalidated
				}
				if invalidations == 0 {
					t.Fatal("no step invalidated any summary — the cone machinery never fired")
				}
			})
		}
	}
}
