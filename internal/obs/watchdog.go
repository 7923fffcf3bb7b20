// Stall watchdog: a wall-clock sampler over a Probe that notices when a
// run has stopped making progress and says why. The diagnosis logic is
// a pure function over two snapshots (Diagnose), so the detector is
// testable without timers; the Watchdog wraps it in a ticker goroutine
// and fires a structured StallReport (plus, when a flight recorder is
// attached, a dump of the recent event history) through a callback.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default watchdog cadence: sample twice a second, call a run stalled
// after five seconds without progress.
const (
	DefaultWatchdogTick  = 500 * time.Millisecond
	DefaultWatchdogStall = 5 * time.Second
)

// WatchdogConfig configures a Watchdog.
type WatchdogConfig struct {
	// Probe is the live-state source to sample. Required.
	Probe *Probe
	// Flight, when set, is dumped into the StallReport on trigger.
	Flight *Recording
	// Tick is the sampling period (DefaultWatchdogTick when zero).
	Tick time.Duration
	// StallAfter is how long progress may flatline before the watchdog
	// fires (DefaultWatchdogStall when zero).
	StallAfter time.Duration
	// OnStall receives each stall report. Required for the watchdog to
	// be useful; it is invoked from the watchdog goroutine.
	OnStall func(StallReport)
}

// StallReport is the watchdog's structured diagnosis of a stalled run.
type StallReport struct {
	// Reason is the primary diagnosis: "all-blocked", "straggler", or
	// "no-progress".
	Reason string `json:"reason"`
	// Detail is a human-oriented elaboration of Reason.
	Detail string `json:"detail"`
	// Stalled is how long the progress signature had been flat when the
	// report fired.
	Stalled time.Duration `json:"stalled_ns"`
	// Stragglers lists workers still marked running while the rest of
	// the pool sits idle/parked (straggler diagnosis only).
	Stragglers []WorkerState `json:"stragglers,omitempty"`
	// State is the snapshot the diagnosis was made from.
	State *StateSnapshot `json:"state,omitempty"`
	// Flight is the recent event history at trigger time (when the
	// watchdog had a recorder attached).
	Flight *FlightSnapshot `json:"flight,omitempty"`
}

// String renders the report as the one-paragraph diagnosis the CLIs
// print.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: stall detected (%s) after %v: %s", r.Reason, r.Stalled.Round(time.Millisecond), r.Detail)
	if r.State != nil {
		fmt.Fprintf(&b, "\n  forest: live=%d ready=%d blocked=%d running=%d done=%d/%d",
			r.State.Forest.Live, r.State.Forest.Ready, r.State.Forest.Blocked,
			r.State.Forest.Running, r.State.Forest.Done, r.State.Forest.Spawned)
		fmt.Fprintf(&b, "\n  coalescer: inflight=%d waiter_edges=%d", r.State.Coalescer.InflightKeys, r.State.Coalescer.WaiterEdges)
	}
	for _, w := range r.Stragglers {
		fmt.Fprintf(&b, "\n  straggler: worker %d running %s (query %d, %d punches)", w.Worker, w.Proc, w.Query, w.Punches)
	}
	if r.Flight != nil {
		fmt.Fprintf(&b, "\n  flight: %d events retained, %d dropped", len(r.Flight.Events), r.Flight.Dropped)
	}
	return b.String()
}

// progressSig is the part of a snapshot that must move for the run to
// count as progressing. Punch completions are included so a run that
// answers nothing but keeps grinding PUNCHes (e.g. a slow straggler)
// is distinguished from one that is truly wedged.
type progressSig struct {
	vtime   int64
	done    int64
	spawned int64
	punches int64
}

func signature(s *StateSnapshot) progressSig {
	if s == nil {
		return progressSig{}
	}
	return progressSig{
		vtime:   s.VTime,
		done:    s.Forest.Done,
		spawned: s.Forest.Spawned,
		punches: s.TotalPunches(),
	}
}

// Diagnose classifies a stalled snapshot. prev and cur are consecutive
// watchdog samples whose progress signatures matched for at least the
// stall window; stuck is how long the signature has been flat. The
// returned report carries cur. Diagnose is pure — no clocks, no locks —
// so tests can drive it with hand-built snapshots.
func Diagnose(prev, cur *StateSnapshot, stuck time.Duration) StallReport {
	r := StallReport{Reason: "no-progress", Stalled: stuck, State: cur}
	if cur == nil {
		r.Detail = "no state snapshot available"
		return r
	}
	running, parked := 0, 0
	var stragglers []WorkerState
	for _, w := range cur.Workers {
		switch w.Phase {
		case WorkerRunning.String():
			running++
			stragglers = append(stragglers, w)
		case WorkerParked.String():
			parked++
		}
	}
	switch {
	case len(cur.Workers) > 0 && running == 0 && cur.Forest.Blocked > 0 && cur.Forest.Ready == 0:
		// Nothing is executing and every live query is waiting on an
		// answer that cannot arrive: the classic deadlock shape.
		r.Reason = "all-blocked"
		r.Detail = fmt.Sprintf("%d queries blocked, 0 ready, 0 workers running (%d parked)",
			cur.Forest.Blocked, parked)
	case running > 0 && running*4 <= len(cur.Workers):
		// A small minority of the pool is still inside PUNCH while the
		// rest drained — the idle-gap/straggler shape from analyze's
		// profile, observed live.
		sort.Slice(stragglers, func(i, j int) bool { return stragglers[i].Worker < stragglers[j].Worker })
		r.Reason = "straggler"
		r.Detail = fmt.Sprintf("%d of %d workers still running with no progress for %v",
			running, len(cur.Workers), stuck.Round(time.Millisecond))
		r.Stragglers = stragglers
	default:
		r.Detail = fmt.Sprintf("no vtime/answer/punch movement for %v (%d workers running, %d parked)",
			stuck.Round(time.Millisecond), running, parked)
	}
	_ = prev // reserved: future diagnoses may compare deltas
	return r
}

// WatchdogStatus is the watchdog's own health, served by
// /debug/bolt/health.
type WatchdogStatus struct {
	Enabled bool `json:"enabled"`
	// Samples counts watchdog ticks; Stalls how many stall episodes
	// have fired.
	Samples int64 `json:"samples"`
	Stalls  int64 `json:"stalls"`
	// LastReason is the Reason of the most recent stall report ("" when
	// none fired yet).
	LastReason string `json:"last_reason,omitempty"`
	// StuckFor is how long the current no-progress interval has lasted
	// (0 when progressing).
	StuckFor time.Duration `json:"stuck_for_ns"`
}

// Watchdog samples a Probe on a wall-clock tick and fires OnStall when
// the run flatlines. One stall episode fires one report: the watchdog
// re-arms only after progress resumes, so a wedged run does not spam
// its callback every tick.
type Watchdog struct {
	cfg WatchdogConfig

	samples    atomic.Int64
	stalls     atomic.Int64
	lastReason atomic.Value // string
	stuckNs    atomic.Int64

	mu      sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// NewWatchdog returns an unstarted watchdog; cfg.Tick and
// cfg.StallAfter get their defaults here.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultWatchdogTick
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = DefaultWatchdogStall
	}
	return &Watchdog{cfg: cfg}
}

// Start launches the sampling goroutine. Starting a started watchdog is
// a no-op.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.stopped = make(chan struct{})
	go w.run(w.stop, w.stopped)
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to
// call on a nil or never-started watchdog.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	stop, stopped := w.stop, w.stopped
	w.stop, w.stopped = nil, nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-stopped
	}
}

// Status reports the watchdog's counters (zero-valued on nil).
func (w *Watchdog) Status() WatchdogStatus {
	if w == nil {
		return WatchdogStatus{}
	}
	st := WatchdogStatus{
		Enabled:  true,
		Samples:  w.samples.Load(),
		Stalls:   w.stalls.Load(),
		StuckFor: time.Duration(w.stuckNs.Load()),
	}
	if r, ok := w.lastReason.Load().(string); ok {
		st.LastReason = r
	}
	return st
}

func (w *Watchdog) run(stop, stopped chan struct{}) {
	defer close(stopped)
	t := time.NewTicker(w.cfg.Tick)
	defer t.Stop()
	var (
		prev     *StateSnapshot
		last     progressSig
		flatFor  time.Duration
		haveSig  bool
		reported bool
	)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		cur := w.cfg.Probe.State()
		w.samples.Add(1)
		if cur == nil || cur.Phase != RunActive.String() {
			// Nothing running: reset the episode so the next run starts
			// with a fresh window.
			prev, haveSig, flatFor, reported = nil, false, 0, false
			w.stuckNs.Store(0)
			continue
		}
		sig := signature(cur)
		if !haveSig || sig != last {
			last, haveSig = sig, true
			prev = cur
			flatFor = 0
			reported = false
			w.stuckNs.Store(0)
			continue
		}
		flatFor += w.cfg.Tick
		w.stuckNs.Store(int64(flatFor))
		if flatFor < w.cfg.StallAfter || reported {
			continue
		}
		reported = true
		w.stalls.Add(1)
		rep := Diagnose(prev, cur, flatFor)
		w.lastReason.Store(rep.Reason)
		if w.cfg.Flight != nil {
			fs := w.cfg.Flight.Snapshot()
			rep.Flight = &fs
		}
		if w.cfg.OnStall != nil {
			w.cfg.OnStall(rep)
		}
	}
}
