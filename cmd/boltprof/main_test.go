package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	bolt "repro"
	"repro/internal/obs"
)

// TestReportChrome round-trips one corpus run through a JSONL file and
// `boltprof -report chrome`: the document must be byte-identical to
// obs.WriteChrome over the same events recorded in memory (which
// obs's TestTraceRoundTrip validates), hold one complete span per
// punch-end, and load as a JSON array. With TestTraceRoundTrip it is the
// `make trace-smoke` CI gate.
func TestReportChrome(t *testing.T) {
	src, err := os.ReadFile("../../testdata/corpus/bug_deep_call.bolt")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bolt.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	rec := &obs.Recording{}
	res := prog.Check(bolt.Options{Threads: 4, Async: true, Timeout: 30 * time.Second, TraceJSONLTo: &jsonl, FlightRecorder: rec})
	if res.Verdict != bolt.ErrorReachable || res.TraceErr != nil {
		t.Fatalf("verdict %v, trace error %v", res.Verdict, res.TraceErr)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var viaFile, direct bytes.Buffer
	if err := runReport(path, "chrome", &viaFile); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	spans, err := obs.WriteChrome(&direct, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFile.Bytes(), direct.Bytes()) {
		t.Fatal("boltprof -report chrome differs from WriteChrome over the recorded events")
	}
	ends := 0
	for _, ev := range evs {
		if ev.Type == obs.EvPunchEnd {
			ends++
		}
	}
	var doc []struct {
		Ph string `json:"ph"`
	}
	if err := json.Unmarshal(viaFile.Bytes(), &doc); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	complete := 0
	for _, ev := range doc {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != ends || spans != ends || ends == 0 {
		t.Errorf("%d complete spans, WriteChrome reported %d, %d punch-ends recorded", complete, spans, ends)
	}
	if err := runReport(path, "svg", &viaFile); err == nil {
		t.Error("an unknown report format was accepted")
	}
}
