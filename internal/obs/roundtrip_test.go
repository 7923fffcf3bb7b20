package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
)

// TestTraceRoundTrip drives a corpus program through all three engines
// with a Recording attached, converts the recorded stream with
// WriteChrome and validates the document: parseable Chrome trace-event
// JSON, well-nested spans per track, one PUNCH span per punch
// invocation the registry folded, and at least one per completed query.
// With boltprof's TestReportChrome it is the `make trace-smoke` CI gate.
func TestTraceRoundTrip(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	src, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	q0 := core.AssertionQuestion(prog)
	runs := map[string]func(obs.Tracer, *obs.Metrics) core.Result{
		"barrier": func(tr obs.Tracer, m *obs.Metrics) core.Result {
			return core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000, Tracer: tr, Metrics: m}).Run(q0)
		},
		"async": func(tr obs.Tracer, m *obs.Metrics) core.Result {
			return core.New(prog, core.Options{Punch: maymust.New(), MaxThreads: 8, MaxIterations: 60000, Async: true, Tracer: tr, Metrics: m}).Run(q0)
		},
		"dist": func(tr obs.Tracer, m *obs.Metrics) core.Result {
			return core.NewDistributed(prog, core.DistOptions{Punch: maymust.New(), Nodes: 3, ThreadsPerNode: 4, Tracer: tr, Metrics: m}).Run(q0)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			rec := &obs.Recording{}
			res := run(rec, obs.NewMetrics())
			snap := res.Metrics
			if res.Verdict == core.Unknown {
				t.Fatal("verdict Unknown")
			}
			var buf bytes.Buffer
			spans, err := obs.WriteChrome(&buf, rec.Events())
			if err != nil {
				t.Fatal(err)
			}
			validated, err := obs.ValidateChromeTrace(buf.Bytes())
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			if validated != spans || spans < 1 {
				t.Errorf("validated %d spans, WriteChrome reported %d", validated, spans)
			}
			if snap == nil {
				t.Fatal("Metrics snapshot is nil with a registry attached")
			}
			if got := snap.Counters["punch_invocations"]; int64(spans) != got {
				t.Errorf("spans = %d, punch_invocations = %d", spans, got)
			}
			if done := snap.Counters["queries_done"]; int64(spans) < done {
				t.Errorf("spans = %d < queries_done = %d", spans, done)
			}
		})
	}
}
