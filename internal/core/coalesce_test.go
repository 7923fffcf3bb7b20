package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/maymust"
	"repro/internal/query"
	"repro/internal/summary"
)

// diamondPunch scripts the canonical coalescing shape: the root spawns
// "left" and "right", each of which spawns an identical "shared"
// question. With coalescing on, the second "shared" spawn must attach to
// the in-flight first instead of allocating a twin subtree; the shared
// query goes Done while its coalesced waiter is still Blocked, so the
// Done fan-out and the GC retention rule are both on the hook — a
// dropped wake or a premature collection deadlocks the diamond.
type diamondPunch struct {
	mu         sync.Mutex
	calls      map[query.ID]int
	armsDone   map[string]bool
	sharedRuns int
}

func newDiamondPunch() *diamondPunch {
	return &diamondPunch{calls: map[query.ID]int{}, armsDone: map[string]bool{}}
}

func (p *diamondPunch) Name() string { return "diamond" }

func (p *diamondPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[qr.ID]++
	done := func() punch.Result {
		qr.State, qr.Outcome = query.Done, query.Unreachable
		return punch.Result{Self: qr, Cost: 1}
	}
	spawn := func(procs ...string) punch.Result {
		children := make([]*query.Query, len(procs))
		for i, proc := range procs {
			children[i] = ctx.Alloc.New(qr.ID, summary.Question{Proc: proc})
		}
		qr.State = query.Blocked
		return punch.Result{Self: qr, Children: children, Cost: 1}
	}
	switch qr.Q.Proc {
	case "main":
		if p.calls[qr.ID] == 1 {
			return spawn("left", "right")
		}
		// Re-examine-and-reblock: a wake with only one arm answered is
		// legitimate (the streaming schedule wakes on the first child's
		// Done), so the root completes only once both arms have.
		if p.armsDone["left"] && p.armsDone["right"] {
			return done()
		}
		qr.State = query.Blocked
		return punch.Result{Self: qr, Cost: 1}
	case "left", "right":
		if p.calls[qr.ID] == 1 {
			return spawn("shared")
		}
		p.armsDone[qr.Q.Proc] = true
		return done()
	default: // shared
		p.sharedRuns++
		return done()
	}
}

// TestCoalesceDiamondBarrier: exact accounting on the deterministic
// barrier schedule: one coalesce hit, and the shared subtree exists once
// (4 queries total live and done, one shared PUNCH run). The diamond
// terminates with the root answered — the waiter wake after the shared
// query's Done is what keeps the second arm alive.
func TestCoalesceDiamondBarrier(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	t.Run("coalesce-on", func(t *testing.T) {
		p := newDiamondPunch()
		res := New(prog, Options{Punch: p, MaxThreads: 2, MaxIterations: 100}).Run(summary.Question{Proc: "main"})
		if res.Verdict != Safe {
			t.Fatalf("verdict = %v", res.Verdict)
		}
		if res.StopReason != StopRootAnswered {
			t.Fatalf("stop reason = %v (a lost waiter wake deadlocks here)", res.StopReason)
		}
		if res.CoalesceHits != 1 {
			t.Errorf("CoalesceHits = %d, want 1", res.CoalesceHits)
		}
		if res.DoneQueries != 4 {
			t.Errorf("DoneQueries = %d, want 4", res.DoneQueries)
		}
		if res.PeakLive != 4 {
			t.Errorf("PeakLive = %d, want 4", res.PeakLive)
		}
		if p.sharedRuns != 1 {
			t.Errorf("shared PUNCH runs = %d, want 1", p.sharedRuns)
		}
	})
}

// TestCoalesceDiamondAsync: the streaming schedule is nondeterministic
// (the second arm may spawn before, during, or after the shared twin's
// lifetime), but accounting must balance: every allocated arm either
// runs to Done or is absorbed by a coalesce hit, so Done + hits is the
// full 5-query diamond regardless of interleaving.
func TestCoalesceDiamondAsync(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	for i := 0; i < 20; i++ {
		res := New(prog, Options{
			Punch:         newDiamondPunch(),
			MaxThreads:    4,
			Async:         true,
			MaxIterations: 1000,
		}).Run(summary.Question{Proc: "main"})
		if res.Verdict != Safe || res.StopReason != StopRootAnswered {
			t.Fatalf("run %d: verdict %v, stop %v", i, res.Verdict, res.StopReason)
		}
		if got := res.DoneQueries + res.CoalesceHits; got != 5 {
			t.Fatalf("run %d: DoneQueries (%d) + CoalesceHits (%d) = %d, want 5",
				i, res.DoneQueries, res.CoalesceHits, got)
		}
	}
}

// TestCorpusCoalesceConfluence: on the regression corpus, coalescing
// and the entailment cache must be invisible in the verdict — every
// engine agrees with the filename's expectation, including the
// distributed engine whose wake fan-out crosses node-local trees.
func TestCorpusCoalesceConfluence(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is not short")
	}
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want := Unknown
			switch {
			case strings.HasPrefix(name, "safe_"):
				want = Safe
			case strings.HasPrefix(name, "bug_"):
				want = ErrorReachable
			default:
				t.Fatalf("corpus file %s has no verdict prefix", name)
			}
			for _, async := range []bool{false, true} {
				res := New(prog, Options{
					Punch:         maymust.New(),
					MaxThreads:    8,
					MaxIterations: 60000,
					CheckContract: true,
					Async:         async,
				}).Run(AssertionQuestion(prog))
				if res.Verdict != want {
					t.Errorf("async=%v: verdict %v, want %v", async, res.Verdict, want)
				}
			}
			dres := NewDistributed(prog, DistOptions{Punch: maymust.New(), Nodes: 3}).Run(AssertionQuestion(prog))
			if dres.Verdict != want {
				t.Errorf("distributed: verdict %v, want %v", dres.Verdict, want)
			}
		})
	}
}
