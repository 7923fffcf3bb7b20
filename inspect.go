// Live-introspection facade: the handles callers keep across runs to
// watch a check while it is in flight. An Inspector owns the stable
// obs.Probe the engines attach to; pair it with a flight recorder and a
// Watchdog and serve all three with obs.StartDebugServer (the
// /debug/bolt/* endpoints) via DebugState.
//
//	insp := bolt.NewInspector()
//	flight := obs.NewFlightRecorder(0)
//	addr, _ := obs.StartDebugServer(":6060", bolt.DebugState(reg, insp, flight, nil))
//	res := prog.Check(bolt.Options{Threads: 32, Async: true, Inspect: insp, FlightRecorder: flight})
package bolt

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Inspector is the stable live-introspection handle: create one, pass
// it to any number of (sequential) runs via Options.Inspect, and sample
// it from any goroutine at any time. While a run is attached State
// returns a fresh snapshot of the live engine; after the run ends it
// returns the frozen final snapshot. All methods are nil-receiver safe,
// so an optional *Inspector costs its holder nothing.
type Inspector struct {
	probe obs.Probe
}

// NewInspector returns an idle inspector.
func NewInspector() *Inspector { return &Inspector{} }

// Probe exposes the underlying obs.Probe — what Options.Inspect threads
// into the engines and obs.DebugState/obs.WatchdogConfig consume. Nil
// on a nil inspector, which every consumer treats as "introspection
// off".
func (i *Inspector) Probe() *obs.Probe {
	if i == nil {
		return nil
	}
	return &i.probe
}

// State samples the current run (or the frozen final state of the last
// one). Nil when no run has ever attached.
func (i *Inspector) State() *obs.StateSnapshot { return i.Probe().State() }

// DebugState bundles the observability handles for obs.StartDebugServer
// with the build info pre-stamped: it identifies this binary, and the
// engines it compiles in, for the bolt_build_info metric and the
// /debug/bolt/health document. Any handle may be nil — its endpoint then
// serves an empty (but well-formed) response.
func DebugState(m *obs.Metrics, insp *Inspector, flight *obs.Recording, wd *obs.Watchdog) obs.DebugState {
	return obs.DebugState{
		Metrics:  m,
		Probe:    insp.Probe(),
		Flight:   flight,
		Watchdog: wd,
		Build:    obs.BuildInfo{GoVersion: runtime.Version(), WireVersion: wire.Version, Engines: "barrier,async,dist"},
	}
}
