package bolt_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	bolt "repro"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/metrics_pin.golden from this run")

// Budgets of the metrics pin. The may analysis never converges on the two
// looping corpus programs; these bounds keep its runs short (a diverging
// cluster run's cost per round grows with the rounds it has run).
const (
	metricsTicks  = 300_000
	metricsRounds = 200
)

// TestMetricsPin holds the whole metrics registry of a run still: every
// key of Result.Metrics but the wall-clock ones (punch_wall_ns_*), sorted,
// for every corpus program under all three analyses on the barrier engine,
// the streaming engine and a one-node cluster, one thread each. A change
// that only moves where a counter is kept passes untouched; one that adds,
// renames or drops a key, or moves a count, regenerates the table on
// purpose (go test -run TestMetricsPin -update-metrics .) and says so.
func TestMetricsPin(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.bolt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	sort.Strings(files)
	var got []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := bolt.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, a := range []bolt.Analysis{bolt.Must, bolt.May, bolt.MayMust} {
			runs := []struct {
				engine string
				run    func() bolt.Result
			}{
				{"barrier", func() bolt.Result {
					return prog.Check(bolt.Options{Analysis: a, Threads: 1, MaxVirtualTicks: metricsTicks, CollectMetrics: true})
				}},
				{"async", func() bolt.Result {
					return prog.Check(bolt.Options{Analysis: a, Threads: 1, Async: true, MaxVirtualTicks: metricsTicks, CollectMetrics: true})
				}},
				{"dist", func() bolt.Result {
					r, err := prog.CheckDistributed(context.Background(), bolt.DistOptions{Analysis: a, Nodes: 1, ThreadsPerNode: 1, MaxRounds: metricsRounds, CollectMetrics: true})
					if err != nil {
						t.Fatalf("%s %s dist: %v", f, a, err)
					}
					return r
				}},
			}
			for _, e := range runs {
				got = append(got, fmt.Sprintf("%s %s %s %s", filepath.Base(f), a, e.engine, metricsRow(e.run().Metrics)))
			}
		}
	}

	golden := filepath.Join("testdata", "metrics_pin.golden")
	if *updateMetrics {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("metrics moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// metricsRow renders a run's metrics as sorted key=value pairs, without
// the wall-clock keys.
func metricsRow(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if !strings.HasPrefix(k, "punch_wall_ns_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, m[k])
	}
	return b.String()
}
