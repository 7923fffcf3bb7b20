// The live debug HTTP surface: one mux carrying the Prometheus
// exposition, the pprof endpoints, and the /debug/bolt/* introspection
// routes (state, flight, health, prov).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// BuildInfo identifies the running binary for the bolt_build_info
// metric: the Go toolchain, the summary wire-format version, and the
// engines compiled in.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	WireVersion int    `json:"wire_version"`
	Engines     string `json:"engines"`
}

// DebugState bundles the handles the debug server exposes. Every field
// is optional: a nil field simply leaves its endpoint serving an empty
// (but well-formed) response.
type DebugState struct {
	// Metrics backs /metrics.
	Metrics *Metrics
	// Probe backs /debug/bolt/state.
	Probe *Probe
	// Flight backs /debug/bolt/flight.
	Flight *Recording
	// Watchdog contributes its counters to /debug/bolt/health.
	Watchdog *Watchdog
	// Prov backs /debug/bolt/prov: called per request, it returns the
	// most recent verdict's provenance document (any JSON-marshalable
	// value) or nil when no run has recorded provenance yet. The obs
	// package stays decoupled from the provenance types; callers close
	// over whatever they hold.
	Prov func() any
	// Build is stamped into bolt_build_info and /debug/bolt/health.
	Build BuildInfo
	// Start anchors bolt_uptime_seconds (time.Now at server start when
	// zero).
	Start time.Time
}

// WriteRuntimeInfo appends the process-level gauges to a Prometheus
// exposition: bolt_build_info (constant 1 with identifying labels),
// bolt_uptime_seconds, and bolt_run_state (0 idle / 1 running /
// 2 finished) so a scrape can tell an idle server from an in-flight or
// completed run.
func WriteRuntimeInfo(w io.Writer, bi BuildInfo, uptime time.Duration, phase RunPhase) error {
	goVersion := bi.GoVersion
	if goVersion == "" {
		goVersion = runtime.Version()
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE bolt_build_info gauge\nbolt_build_info{go_version=%q,wire_version=\"%d\",engines=%q} 1\n",
		goVersion, bi.WireVersion, bi.Engines); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE bolt_uptime_seconds gauge\nbolt_uptime_seconds %.3f\n", uptime.Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"# TYPE bolt_run_state gauge\nbolt_run_state %d\n", int(phase))
	return err
}

// Handler builds the full debug mux for st: /metrics, /debug/bolt/state,
// /debug/bolt/flight, /debug/bolt/health, and the /debug/pprof family.
func (st DebugState) Handler() http.Handler {
	start := st.Start
	if start.IsZero() {
		start = time.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteRuntimeInfo(w, st.Build, time.Since(start), st.Probe.Phase()); err != nil {
			return
		}
		_ = WritePrometheus(w, st.Metrics.Snapshot())
	})
	mux.HandleFunc("/debug/bolt/state", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := st.Probe.State()
		if s == nil {
			// No run attached and none completed: an explicit idle
			// document beats a 404 — pollers can keep one code path.
			s = &StateSnapshot{Phase: RunIdle.String()}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s)
	})
	mux.HandleFunc("/debug/bolt/flight", func(w http.ResponseWriter, _ *http.Request) {
		snap := st.Flight.Snapshot()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Bolt-Flight-Total", strconv.FormatInt(snap.Total, 10))
		w.Header().Set("X-Bolt-Flight-Dropped", strconv.FormatInt(snap.Dropped, 10))
		w.Header().Set("X-Bolt-Flight-Capacity", strconv.Itoa(st.Flight.Capacity()))
		for _, ev := range snap.Events {
			line, err := MarshalEventJSON(ev)
			if err != nil {
				return
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/bolt/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		total, dropped := st.Flight.Counts()
		doc := struct {
			Status        string         `json:"status"`
			Phase         string         `json:"phase"`
			UptimeSeconds float64        `json:"uptime_seconds"`
			Build         BuildInfo      `json:"build"`
			FlightTotal   int64          `json:"flight_total,omitempty"`
			FlightDropped int64          `json:"flight_dropped,omitempty"`
			Watchdog      WatchdogStatus `json:"watchdog"`
		}{
			Status:        "ok",
			Phase:         st.Probe.Phase().String(),
			UptimeSeconds: time.Since(start).Seconds(),
			Build:         st.Build,
			FlightTotal:   total,
			FlightDropped: dropped,
			Watchdog:      st.Watchdog.Status(),
		}
		if wd := doc.Watchdog; wd.Enabled && wd.StuckFor > 0 {
			doc.Status = "stalled"
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/bolt/prov", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var doc any
		if st.Prov != nil {
			doc = st.Prov()
		}
		if doc == nil {
			doc = struct {
				Status string `json:"status"`
			}{Status: "no provenance recorded"}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// StartDebugServer serves st's debug mux on addr in a background
// goroutine and returns the bound address (useful with ":0"). The
// listener lives for the remainder of the process — the CLIs use it for
// the duration of a run.
func StartDebugServer(addr string, st DebugState) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: st.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
