package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
)

// TestShelfHandoffKeepsVerdicts runs the corpus under the may and the
// may-must analysis on the barrier engine, the streaming engine and a
// three-node cluster, two threads each, where a query starts from the
// region graph an earlier query of its procedure and postcondition left on
// its node's shelf. Every verdict is the file's known answer — the may
// analysis may run out of budget on a loop, never answer wrongly — and on
// safe_shared_helper and safe_lock_protocol every run takes at least one
// shelved graph, so the handoff is engaged wherever this holds.
func TestShelfHandoffKeepsVerdicts(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	engaged := map[string]bool{"safe_shared_helper.bolt": true, "safe_lock_protocol.bolt": true}
	analyses := map[string]func() punch.Punch{
		"may":      func() punch.Punch { return may.New() },
		"may-must": func() punch.Punch { return maymust.New() },
	}
	for _, f := range files {
		name := filepath.Base(f)
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := parser.MustParse(string(src))
		q0 := AssertionQuestion(prog)
		want := ErrorReachable
		if strings.HasPrefix(name, "safe_") {
			want = Safe
		}
		for an, newPunch := range analyses {
			runs := map[string]func(*obs.Metrics) Verdict{
				"barrier": func(m *obs.Metrics) Verdict {
					return New(prog, Options{Punch: newPunch(), MaxThreads: 2, MaxIterations: 4000, MaxVirtualTicks: 50000, CheckContract: true, Metrics: m}).Run(q0).Verdict
				},
				"streaming": func(m *obs.Metrics) Verdict {
					return New(prog, Options{Punch: newPunch(), MaxThreads: 2, Async: true, MaxVirtualTicks: 50000, CheckContract: true, Metrics: m}).Run(q0).Verdict
				},
				"cluster": func(m *obs.Metrics) Verdict {
					return NewDistributed(prog, DistOptions{Punch: newPunch(), Nodes: 3, ThreadsPerNode: 2, MaxRounds: 400, Metrics: m}).Run(q0).Verdict
				},
			}
			for engine, run := range runs {
				m := obs.NewMetrics()
				v := run(m)
				if v != want && !(v == Unknown && an == "may") {
					t.Errorf("%s %s %s: %v, want %v", name, an, engine, v, want)
				}
				if taken := m.Get(obs.ShelfTaken); engaged[name] && taken == 0 {
					t.Errorf("%s %s %s: no query took a shelved graph", name, an, engine)
				}
			}
		}
	}
}
