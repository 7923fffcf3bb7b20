package obs

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseExposition reads a Prometheus text exposition into a flat
// name{labels} -> value map, ignoring comment lines (a fractional gauge
// such as bolt_uptime_seconds is truncated).
func parseExposition(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
		out[line[:i]] = int64(v)
	}
	return out
}

// TestWritePrometheus: counters, worker gauges and cumulative histogram
// buckets all round-trip through the text format.
func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.EnsureWorkers(1, 2)
	for _, ev := range []Event{
		{Type: EvSpawn}, {Type: EvSpawn}, {Type: EvDone},
		{Type: EvPunchEnd, Worker: 0, Cost: 3, N: 10},
		{Type: EvPunchEnd, Worker: 0, Cost: 900, N: 20},
		{Type: EvPunchEnd, Worker: 1, Cost: 70, N: 30},
		{Type: EvSteal, Worker: 1},
	} {
		m.Event(ev)
	}
	snap := m.Snapshot()
	snap.MakespanTicks = 973

	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, b.String())

	if got := vals["bolt_queries_spawned_total"]; got != 2 {
		t.Errorf("queries_spawned_total = %d, want 2", got)
	}
	if got := vals["bolt_queries_done_total"]; got != 1 {
		t.Errorf("queries_done_total = %d, want 1", got)
	}
	if got := vals["bolt_punch_invocations_total"]; got != 3 {
		t.Errorf("punch_invocations_total = %d, want 3", got)
	}
	if got := vals["bolt_makespan_ticks"]; got != 973 {
		t.Errorf("makespan_ticks = %d, want 973", got)
	}
	if got := vals[`bolt_worker_punches{worker="0"}`]; got != 2 {
		t.Errorf(`worker_punches{worker="0"} = %d, want 2`, got)
	}
	if got := vals[`bolt_worker_busy_ticks{worker="0"}`]; got != 903 {
		t.Errorf(`worker_busy_ticks{worker="0"} = %d, want 903`, got)
	}
	if got := vals[`bolt_worker_steals{worker="1"}`]; got != 1 {
		t.Errorf(`worker_steals{worker="1"} = %d, want 1`, got)
	}
	if got := vals["bolt_punch_cost_ticks_sum"]; got != 973 {
		t.Errorf("punch_cost_ticks_sum = %d, want 973", got)
	}
	if got := vals["bolt_punch_cost_ticks_count"]; got != 3 {
		t.Errorf("punch_cost_ticks_count = %d, want 3", got)
	}
	if got := vals[`bolt_punch_cost_ticks_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf(`punch_cost_ticks_bucket{le="+Inf"} = %d, want 3`, got)
	}

	// Buckets must be cumulative: non-decreasing in le order, ending at
	// the +Inf count.
	var prev int64 = -1
	var seen int
	for _, bk := range snap.PunchCost.Buckets {
		key := fmt.Sprintf(`bolt_punch_cost_ticks_bucket{le="%d"}`, bk.Le)
		cum, ok := vals[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if cum < prev {
			t.Errorf("bucket %s not cumulative: %d after %d", key, cum, prev)
		}
		prev = cum
		seen++
	}
	if seen == 0 {
		t.Fatal("no finite punch-cost buckets in exposition")
	}
	if prev != 3 {
		t.Errorf("last finite bucket = %d, want total count 3", prev)
	}
}

func TestWritePrometheusNilSnapshot(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil snapshot rendered %q, want empty", b.String())
	}
}

// TestMetricsHandler: scraping the debug mux's /metrics twice sees the
// registry move.
func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	h := DebugState{Metrics: m}.Handler()
	scrape := func() map[string]int64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("Content-Type = %q, want the 0.0.4 text exposition", ct)
		}
		return parseExposition(t, rec.Body.String())
	}
	m.Event(Event{Type: EvWake})
	if got := scrape()["bolt_wakes_total"]; got != 1 {
		t.Fatalf("first scrape wakes_total = %d, want 1", got)
	}
	m.Event(Event{Type: EvWake})
	if got := scrape()["bolt_wakes_total"]; got != 2 {
		t.Fatalf("second scrape wakes_total = %d, want 2 (handler must re-snapshot)", got)
	}
}

// TestMetricsHandlerNilRegistry: without a registry /metrics serves the
// runtime gauges and no counter.
func TestMetricsHandlerNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	DebugState{}.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "_total") || !strings.Contains(body, "bolt_run_state 0") {
		t.Errorf("nil registry served %q, want the runtime gauges only", body)
	}
}
