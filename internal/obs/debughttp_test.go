package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func debugGet(t *testing.T, st DebugState, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	st.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec
}

func TestDebugMetricsCarriesRuntimeInfo(t *testing.T) {
	m := NewMetrics()
	m.Add(QueriesDone, 3)
	st := DebugState{
		Metrics: m,
		Build:   BuildInfo{GoVersion: "go1.99", WireVersion: 2, Engines: "barrier,async,dist"},
		Start:   time.Now().Add(-2 * time.Second),
	}
	body := debugGet(t, st, "/metrics").Body.String()
	for _, want := range []string{
		`bolt_build_info{go_version="go1.99",wire_version="2",engines="barrier,async,dist"} 1`,
		"bolt_uptime_seconds",
		"bolt_run_state 0", // no probe: idle
		"bolt_queries_done_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDebugStateEndpoint(t *testing.T) {
	var p Probe
	st := DebugState{Probe: &p}

	// Idle: explicit idle document, still valid JSON.
	var doc map[string]any
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/state").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["phase"] != "idle" {
		t.Fatalf("idle phase = %v", doc["phase"])
	}

	// Mid-run: the live snapshot.
	ls := NewLiveState("async", 2, 0, time.Now())
	ls.Publish(Gauges{VTime: 41, Iterations: 5, Forest: ForestState{Live: 3, Ready: 1, Blocked: 1, Running: 1}})
	p.Attach(func() *StateSnapshot { return ls.Snapshot() })
	defer p.Detach()
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/state").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["phase"] != "running" || doc["engine"] != "async" || doc["vtime"] != float64(41) {
		t.Fatalf("running state = %v", doc)
	}
	forest, ok := doc["forest"].(map[string]any)
	if !ok || forest["live"] != float64(3) {
		t.Fatalf("forest = %v", doc["forest"])
	}
}

func TestDebugFlightEndpoint(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Event(Event{Type: EvSpawn, VTime: int64(i)})
	}
	rec := debugGet(t, DebugState{Flight: f}, "/debug/bolt/flight")
	if got := rec.Header().Get("X-Bolt-Flight-Total"); got != "6" {
		t.Fatalf("total header = %q", got)
	}
	if got := rec.Header().Get("X-Bolt-Flight-Dropped"); got != "2" {
		t.Fatalf("dropped header = %q", got)
	}
	if got := rec.Header().Get("X-Bolt-Flight-Capacity"); got != "4" {
		t.Fatalf("capacity header = %q", got)
	}
	lines := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if _, err := UnmarshalEventJSON(sc.Bytes()); err != nil {
			t.Fatalf("flight line does not parse: %v", err)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("flight served %d lines; want 4", lines)
	}
}

func TestDebugHealthEndpoint(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Event(Event{Type: EvSpawn})
	st := DebugState{
		Flight: f,
		Build:  BuildInfo{GoVersion: "go1.99", WireVersion: 2, Engines: "barrier"},
	}
	var doc struct {
		Status      string         `json:"status"`
		Phase       string         `json:"phase"`
		Build       BuildInfo      `json:"build"`
		FlightTotal int64          `json:"flight_total"`
		Watchdog    WatchdogStatus `json:"watchdog"`
	}
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/health").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Phase != "idle" || doc.FlightTotal != 1 {
		t.Fatalf("health = %+v", doc)
	}
	if doc.Build.WireVersion != 2 || doc.Watchdog.Enabled {
		t.Fatalf("health = %+v; want build stamped, watchdog disabled", doc)
	}
}

// TestDebugHealthFlightCountsConsistent: /debug/bolt/health reads the
// flight recorder's total and drop count together while the run keeps
// recording, so on a full ring every response has exactly capacity
// events between them (two separate reads would let the drop count run
// ahead of the total).
func TestDebugHealthFlightCountsConsistent(t *testing.T) {
	const capacity = 4
	f := NewFlightRecorder(capacity)
	for i := 0; i < 2*capacity; i++ {
		f.Event(Event{Type: EvSpawn})
	}
	st := DebugState{Flight: f}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				f.Event(Event{Type: EvPunchStart})
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 200; i++ {
		var doc struct {
			FlightTotal   int64 `json:"flight_total"`
			FlightDropped int64 `json:"flight_dropped"`
		}
		if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/health").Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if got := doc.FlightTotal - doc.FlightDropped; got != capacity {
			t.Fatalf("response %d: total %d - dropped %d = %d, want the ring's %d", i, doc.FlightTotal, doc.FlightDropped, got, capacity)
		}
	}
}

// TestDebugEndpointsAllNil locks in the contract that every handle in
// DebugState is optional: an empty state still serves well-formed
// responses on every route.
func TestDebugEndpointsAllNil(t *testing.T) {
	st := DebugState{}
	var doc map[string]any
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/state").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/health").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if body := debugGet(t, st, "/debug/bolt/flight").Body.String(); body != "" {
		t.Fatalf("nil flight body = %q; want empty", body)
	}
	if body := debugGet(t, st, "/metrics").Body.String(); !strings.Contains(body, "bolt_build_info") {
		t.Fatalf("/metrics = %q", body)
	}
}

// TestDebugProvEndpoint: the provenance route serves whatever document
// the attached source returns, and a well-formed placeholder when no
// provenance has been recorded (source absent or returning nil).
func TestDebugProvEndpoint(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(debugGet(t, DebugState{}, "/debug/bolt/prov").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "no provenance recorded" {
		t.Fatalf("nil source doc = %v", doc)
	}
	st := DebugState{Prov: func() any { return nil }}
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/prov").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "no provenance recorded" {
		t.Fatalf("nil-returning source doc = %v", doc)
	}
	st.Prov = func() any { return map[string]any{"root": "main", "verdict": "Program is Safe"} }
	if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/prov").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["root"] != "main" {
		t.Fatalf("prov doc = %v", doc)
	}
}

// TestDebugHealthStallRecovery drives the full stall lifecycle through
// /debug/bolt/health: a flatlined run flips the status to "stalled" and
// fires one stall report; resumed progress re-arms the watchdog and
// returns the status to "ok"; a second flatline is a fresh episode that
// fires again.
func TestDebugHealthStallRecovery(t *testing.T) {
	var p Probe
	ls := NewLiveState("async", 2, 0, time.Now())
	ls.Publish(Gauges{VTime: 1, Iterations: 1, Forest: ForestState{Live: 1, Blocked: 1}})
	p.Attach(func() *StateSnapshot { return ls.Snapshot() })
	defer p.Detach()

	var reports atomic.Int64
	wd := NewWatchdog(WatchdogConfig{
		Probe:      &p,
		Tick:       time.Millisecond,
		StallAfter: 5 * time.Millisecond,
		OnStall:    func(StallReport) { reports.Add(1) },
	})
	wd.Start()
	defer wd.Stop()
	st := DebugState{Probe: &p, Watchdog: wd}

	health := func() (string, WatchdogStatus) {
		var doc struct {
			Status   string         `json:"status"`
			Watchdog WatchdogStatus `json:"watchdog"`
		}
		if err := json.Unmarshal(debugGet(t, st, "/debug/bolt/health").Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Status, doc.Watchdog
	}
	waitStalled := func(minReports int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if status, _ := health(); status == "stalled" && reports.Load() >= minReports {
				return
			}
			time.Sleep(time.Millisecond)
		}
		status, wst := health()
		t.Fatalf("health never reached stalled with %d report(s): status=%q watchdog=%+v reports=%d",
			minReports, status, wst, reports.Load())
	}

	// Phase 1: the signature is flat, so the watchdog marks the run
	// stalled and fires exactly one report for the episode.
	waitStalled(1)
	if _, wst := health(); !wst.Enabled || wst.StuckFor == 0 || wst.Stalls < 1 {
		t.Fatalf("stalled watchdog status = %+v", wst)
	}

	// Phase 2: progress resumes; the watchdog re-arms and health recovers.
	// Keep the signature moving until the sampler has seen it.
	recovered := false
	vtime := int64(2)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		ls.Publish(Gauges{VTime: vtime, Iterations: vtime, Forest: ForestState{Live: 1, Blocked: 1}})
		vtime++
		if status, wst := health(); status == "ok" && wst.StuckFor == 0 {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		status, wst := health()
		t.Fatalf("health never recovered: status=%q watchdog=%+v", status, wst)
	}
	if reports.Load() != 1 {
		t.Fatalf("recovery must not fire new reports; got %d", reports.Load())
	}

	// Phase 3: a second flatline is a new episode — the re-armed watchdog
	// fires a second report.
	waitStalled(2)
}
