package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// pass re-executes it as a measuring child.
func TestMain(m *testing.M) {
	runIfChild()
	os.Exit(m.Run())
}

// TestSmoke runs one untraced and one traced pass of the smoke workload
// (parport/PowerDownFail under every engine, its buggy variant, one edit
// session) and checks what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	c := newConfig("..", out)
	file, err := readBenchmarkFile(c.root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	dir := filepath.Join(t.TempDir(), "input")
	w, err := setup(smokeWorkload, 0, c.threads, c.root, dir)
	if err != nil {
		t.Fatal(err)
	}
	if needsSeqRef(w) {
		t.Fatal("the smoke workload must carry its own one-thread operations")
	}
	plainPass, err := c.runPass(dir, variantPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracedPass, err := c.runPass(dir, variantTraced, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2e := endToEndResult(c, w, []float64{0.001}, []*passResult{plainPass})
	traced, err := tracedResult(c, w, plainPass, tracedPass, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*runResult{e2e, traced} {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("traced=%v: %d operations attempted, %d failed: %v", r.Traced, r.Attempted, r.Failed, r.Failures)
		}
		// The last line of a contract run must survive a JSON round trip.
		line, err := json.Marshal(r.contract())
		if err != nil {
			t.Fatal(err)
		}
		var back contractLine
		if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(r.Metrics) {
			t.Errorf("contract line does not round-trip: %v", err)
		}
	}
	if len(file.EndToEnd) != len(e2e.Metrics) || len(file.PerLayer) != len(traced.Metrics) {
		t.Errorf("BENCHMARK.json names %d+%d metrics, the benchmark reports %d+%d (regenerate it with -benchmark-json)",
			len(file.EndToEnd), len(file.PerLayer), len(e2e.Metrics), len(traced.Metrics))
	}
	for _, d := range file.EndToEnd {
		if v, ok := e2e.Metrics[d.Name]; !ok || v.Unit != d.Unit || !name.MatchString(d.Name) {
			t.Errorf("end-to-end metric %q (%s): reported %v as %+v", d.Name, d.Unit, ok, v)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range file.PerLayer {
		if v, ok := traced.Metrics[d.Name]; !ok || v.Unit != d.Unit || !name.MatchString(d.Name) {
			t.Errorf("per-layer metric %q (%s): reported %v as %+v", d.Name, d.Unit, ok, v)
		}
	}
	if got := benchmarkJSON(); !jsonEqual(t, got, filepath.Join(c.root, "BENCHMARK.json")) {
		t.Error("BENCHMARK.json differs from the metric tables in this package (regenerate it with -benchmark-json)")
	}

	// The decorators must not change what the engines do: the traced
	// rows carry the same verdict as the facade rows, and on one thread
	// the PUNCH cost the decorator summed equals the facade's ticks.
	rows := map[string]checkRow{}
	for _, r := range traced.Checks {
		rows[r.Name] = r
	}
	compared := 0
	for _, plain := range e2e.Checks {
		tr, ok := rows[variantTraced+":"+plain.Name]
		if !ok {
			t.Errorf("%s: no traced row", plain.Name)
			continue
		}
		if tr.Verdict != plain.Verdict {
			t.Errorf("%s: facade says %q, traced engine says %q", plain.Name, plain.Verdict, tr.Verdict)
		}
		if plain.Name == "seq/parport/PowerDownFail" || plain.Name == "refute/parport/PowerDownFail+bug" {
			compared++
			if tr.Ticks != plain.Ticks || tr.Queries != plain.Queries || tr.SatCalls != plain.SatCalls {
				t.Errorf("%s: facade %d ticks/%d queries/%d sat calls, traced %d/%d/%d",
					plain.Name, plain.Ticks, plain.Queries, plain.SatCalls, tr.Ticks, tr.Queries, tr.SatCalls)
			}
		}
	}
	if compared != 2 {
		t.Errorf("compared %d one-thread rows, want 2", compared)
	}
	if w := traced.Metrics["core.work_ticks"].Value; w <= 0 {
		t.Errorf("core.work_ticks = %v", w)
	}

	// Span self times are never negative, and within a one-thread
	// operation they add up to the operation's own span.
	data, err := os.ReadFile(filepath.Join(out, smokeWorkload+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.SelfNs) != len(tf.Spans) {
		t.Fatalf("%d spans, %d self times", len(tf.Spans), len(tf.SelfNs))
	}
	sum, total := map[int]int64{}, map[int]int64{}
	for i, s := range tf.Spans {
		if tf.SelfNs[i] < 0 || s.EndNs < s.StartNs {
			t.Errorf("span %d (%s %s): self %d ns, %d..%d", s.ID, s.Layer, s.Name, tf.SelfNs[i], s.StartNs, s.EndNs)
		}
		sum[s.Op] += tf.SelfNs[i]
		if s.Parent == 0 {
			total[s.Op] = s.EndNs - s.StartNs
		}
	}
	for i, opName := range tf.Ops {
		if opName == "seq/parport/PowerDownFail" && (total[i] == 0 || sum[i] != total[i]) {
			t.Errorf("%s: self times add up to %d ns, the operation span is %d ns", opName, sum[i], total[i])
		}
	}
}

func jsonEqual(t *testing.T, got, path string) bool {
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal([]byte(got), &a) != nil || json.Unmarshal(want, &b) != nil {
		return false
	}
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return string(x) == string(y)
}
