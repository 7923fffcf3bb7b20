package core

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/summary"
)

// gatePunch is a scripted PUNCH that wedges a run at a known point: the
// root spawns one child ("slow") and blocks; the child parks on a
// wall-clock gate until the test releases it. While the gate is closed
// the run is provably mid-flight, so the test can sample the probe and
// know exactly what it should see.
type gatePunch struct {
	entered chan struct{} // closed when the child PUNCH begins
	release chan struct{} // closed by the test to let the child finish

	enterOnce sync.Once
	mu        sync.Mutex
	calls     map[query.ID]int
}

func newGatePunch() *gatePunch {
	return &gatePunch{
		entered: make(chan struct{}),
		release: make(chan struct{}),
		calls:   map[query.ID]int{},
	}
}

func (p *gatePunch) Name() string { return "gate" }

func (p *gatePunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	p.calls[qr.ID]++
	calls := p.calls[qr.ID]
	p.mu.Unlock()
	done := func() punch.Result {
		// PUNCH contract: a Done query's answer is in the database. The
		// distributed engine's root check relies on it when REDUCE
		// garbage-collects the root in the same round it completes.
		ctx.DB.Add(summary.Summary{Kind: summary.NotMay, Proc: qr.Q.Proc, Pre: qr.Q.Pre, Post: qr.Q.Post})
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 1}
	}
	if qr.Parent == query.NoParent {
		if calls > 1 {
			return done()
		}
		c := ctx.Alloc.New(qr.ID, summary.Question{Proc: "slow", Pre: logic.True, Post: logic.True})
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: []*query.Query{c}, Cost: 1}
	}
	p.enterOnce.Do(func() { close(p.entered) })
	<-p.release
	return done()
}

// sampleStateJSON issues the acceptance-criterion request: GET
// /debug/bolt/state against a live probe, asserting the response is
// well-formed JSON, and returns the decoded snapshot.
func sampleStateJSON(t *testing.T, probe *obs.Probe) *obs.StateSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.DebugState{Probe: probe}.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bolt/state", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/bolt/state = %d", rec.Code)
	}
	var s obs.StateSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/debug/bolt/state is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	return &s
}

// TestLiveStateMidRun samples /debug/bolt/state while each engine is
// provably mid-flight (wedged on the gate PUNCH) and asserts the
// snapshot reflects a live run: phase running, the right engine and
// worker population, a worker visibly inside the slow PUNCH, and the
// SUMDB/solver views attached.
func TestLiveStateMidRun(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	q0 := summary.Question{Proc: "main", Pre: logic.True, Post: logic.True}

	type result struct {
		verdict Verdict
		reason  StopReason
	}
	engines := []struct {
		name    string
		workers int
		nodes   int
		run     func(p *gatePunch, probe *obs.Probe) result
	}{
		{"barrier", 4, 0, func(p *gatePunch, probe *obs.Probe) result {
			res := New(prog, Options{Punch: p, MaxThreads: 4, MaxIterations: 100, Probe: probe}).Run(q0)
			return result{res.Verdict, res.StopReason}
		}},
		{"async", 4, 0, func(p *gatePunch, probe *obs.Probe) result {
			res := New(prog, Options{Punch: p, MaxThreads: 4, MaxIterations: 100, Async: true, Probe: probe}).Run(q0)
			return result{res.Verdict, res.StopReason}
		}},
		{"dist", 6, 3, func(p *gatePunch, probe *obs.Probe) result {
			res := NewDistributed(prog, DistOptions{Punch: p, Nodes: 3, ThreadsPerNode: 2, Probe: probe}).RunContext(context.Background(), q0)
			return result{res.Verdict, res.StopReason}
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			p := newGatePunch()
			var probe obs.Probe
			resCh := make(chan result, 1)
			go func() { resCh <- eng.run(p, &probe) }()

			select {
			case <-p.entered:
			case <-time.After(30 * time.Second):
				t.Fatal("child PUNCH never started")
			}
			s := sampleStateJSON(t, &probe)
			if s.Phase != "running" {
				t.Errorf("phase = %q; want running", s.Phase)
			}
			if s.Engine != eng.name {
				t.Errorf("engine = %q; want %q", s.Engine, eng.name)
			}
			if len(s.Workers) != eng.workers {
				t.Errorf("workers = %d; want %d", len(s.Workers), eng.workers)
			}
			slow := 0
			for _, w := range s.Workers {
				if w.Phase == "running" && w.Proc == "slow" {
					slow++
				}
			}
			if slow != 1 {
				t.Errorf("workers inside the slow PUNCH = %d; want exactly 1\n%+v", slow, s.Workers)
			}
			if s.SumDB == nil || s.Solver == nil {
				t.Errorf("SumDB/Solver views missing: %v/%v", s.SumDB, s.Solver)
			} else if len(s.Solver.Memos) != 5 || s.Solver.Memos[0].Capacity == 0 {
				t.Errorf("solver memo fills missing: %+v", s.Solver.Memos)
			}
			if eng.nodes > 0 && len(s.Nodes) != eng.nodes {
				t.Errorf("nodes = %d; want %d", len(s.Nodes), eng.nodes)
			}
			if eng.nodes == 0 && len(s.Nodes) != 0 {
				t.Errorf("single-machine engine published %d nodes", len(s.Nodes))
			}

			close(p.release)
			res := <-resCh
			if res.verdict != Safe || res.reason != StopRootAnswered {
				t.Fatalf("run ended %v/%v; want Safe/root-answered", res.verdict, res.reason)
			}
			if probe.Phase() != obs.RunFinished {
				t.Fatalf("probe phase after run = %v; want finished", probe.Phase())
			}
			final := sampleStateJSON(t, &probe)
			if final.Phase != "finished" {
				t.Fatalf("final phase = %q; want finished", final.Phase)
			}
			if final.Forest.Done < 2 {
				t.Fatalf("final done = %d; want >= 2 (root + child)", final.Forest.Done)
			}
		})
	}
}

// TestWatchdogStallSmoke is the scripted-stall acceptance check (run by
// `make watchdog-smoke`): wedge the streaming engine on the gate PUNCH,
// point a fast watchdog at its probe, and require a stall diagnosis
// with the flight recorder's event history attached before the run is
// released.
func TestWatchdogStallSmoke(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	p := newGatePunch()
	var probe obs.Probe
	flight := obs.NewFlightRecorder(128)

	reports := make(chan obs.StallReport, 4)
	wd := obs.NewWatchdog(obs.WatchdogConfig{
		Probe:      &probe,
		Flight:     flight,
		Tick:       5 * time.Millisecond,
		StallAfter: 25 * time.Millisecond,
		OnStall:    func(r obs.StallReport) { reports <- r },
	})
	wd.Start()
	defer wd.Stop()

	resCh := make(chan Verdict, 1)
	go func() {
		res := New(prog, Options{
			Punch:      p,
			MaxThreads: 4,
			Async:      true,
			Probe:      &probe,
			Tracer:     flight,
		}).Run(summary.Question{Proc: "main", Pre: logic.True, Post: logic.True})
		resCh <- res.Verdict
	}()

	select {
	case <-p.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("child PUNCH never started")
	}
	var rep obs.StallReport
	select {
	case rep = <-reports:
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog never diagnosed the seeded stall")
	}
	if rep.Reason == "" || rep.State == nil {
		t.Fatalf("report = %+v; want a diagnosis with state attached", rep)
	}
	if rep.State.Engine != "async" || rep.State.Phase != "running" {
		t.Fatalf("report state = %s/%s; want async/running", rep.State.Engine, rep.State.Phase)
	}
	if rep.Flight == nil || rep.Flight.Total == 0 {
		t.Fatalf("flight history missing from report: %+v", rep.Flight)
	}
	if rep.Stalled < 25*time.Millisecond {
		t.Fatalf("stalled = %v; want >= the stall window", rep.Stalled)
	}
	t.Logf("diagnosis:\n%s", rep.String())

	close(p.release)
	if v := <-resCh; v != Safe {
		t.Fatalf("released run ended %v; want Safe", v)
	}
	if st := wd.Status(); st.Stalls == 0 {
		t.Fatalf("watchdog status = %+v; want at least one stall", st)
	}
}
