package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/drivers"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// trajectory is what a one-thread run is compared by: the figures
// testdata/traj_pin.golden pins, and the traffic of the run's shelf of
// region graphs.
type trajectory struct {
	verdict                 Verdict
	ticks, queries, sat     int64
	shelved, taken, evicted int64
}

func trajOf(r Result) trajectory {
	c := r.Metrics.Counters
	return trajectory{r.Verdict, r.VirtualTicks, r.TotalQueries, r.Solver.SatCalls, c["shelf_shelved"], c["shelf_taken"], c["shelf_evicted"]}
}

// runOne checks prog on one thread of the barrier engine, warm from st
// when it is not nil, with tr (nil: none) receiving its events.
func runOne(prog *cfg.Program, st store.Store, tr obs.Tracer) Result {
	o := Options{Punch: maymust.New(), MaxThreads: 1, Store: st, Tracer: tr, Metrics: obs.NewMetrics()}
	return New(prog, o).Run(AssertionQuestion(prog))
}

// tracerFunc is a function taking a run's events.
type tracerFunc func(obs.Event)

func (f tracerFunc) Event(ev obs.Event) { f(ev) }

// wireKeys is the set of s's durable keys, sorted: summaries of two runs
// compare by these, never by logic.Key, whose ids live as long as a run.
func wireKeys(t *testing.T, ss []summary.Summary) []string {
	t.Helper()
	var out []string
	for _, s := range ss {
		k, err := wire.SummaryKey(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, k)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// memOf is a store holding ss.
func memOf(t *testing.T, ss []summary.Summary) *store.Mem {
	t.Helper()
	m := store.NewMem()
	for _, s := range ss {
		if _, err := m.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// decoded is ss rebuilt from their wire bytes, as a new process reading
// them from disk would have them: interned in the current generation.
func decoded(t *testing.T, ss []summary.Summary) []summary.Summary {
	t.Helper()
	var out []summary.Summary
	for _, s := range ss {
		b, err := wire.AppendSummary(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := wire.DecodeSummary(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// Formulas outlive the run that built them: the summaries a store.Mem
// keeps and a run's Result.Summaries are of a dropped generation of the
// intern table once the run has ended. A later run fed them must do
// exactly what it does when fed the same summaries decoded afresh, and
// end with the same summaries. The root procedure's summaries are left
// out, so that the later run has work to do with the others. Before each
// run the table is given the decoded copies, so that the ids the old
// formulas carry are in use again: were they not told apart by their
// generation, they would name other nodes.
func TestFormulasOutliveTheirRun(t *testing.T) {
	prog := drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config)
	root := AssertionQuestion(prog).Proc
	notRoot := func(ss []summary.Summary) (out []summary.Summary) {
		for _, s := range ss {
			if s.Proc != root {
				out = append(out, s)
			}
		}
		return out
	}
	mem := store.NewMem()
	first := runOne(prog, mem, nil)
	if first.Verdict != Safe || len(first.Summaries) == 0 {
		t.Fatalf("cold run: %v with %d summaries, want Safe with some", first.Verdict, len(first.Summaries))
	}
	if _, err := mem.DeleteProcs([]string{root}); err != nil {
		t.Fatal(err)
	}
	kept, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.Store{
		"store.Mem":        mem,
		"Result.Summaries": memOf(t, notRoot(first.Summaries)),
	} {
		decoded(t, kept)
		got := runOne(prog, st, nil)
		ref := runOne(prog, memOf(t, decoded(t, kept)), nil)
		if got.WarmSummaries != len(kept) || ref.WarmSummaries != len(kept) {
			t.Fatalf("warm runs loaded %d and %d summaries, want %d", got.WarmSummaries, ref.WarmSummaries, len(kept))
		}
		t.Logf("%s: first %+v got %+v ref %+v", name, trajOf(first), trajOf(got), trajOf(ref))
		if trajOf(got) != trajOf(ref) {
			t.Errorf("warm from %s of the dropped generation: %+v, from the same summaries decoded afresh: %+v", name, trajOf(got), trajOf(ref))
		}
		if !slices.Equal(wireKeys(t, got.Summaries), wireKeys(t, ref.Summaries)) {
			t.Errorf("warm from %s of the dropped generation ends with other summaries than from the same decoded afresh", name)
		}
	}
}

// Two runs in one process that overlap share the intern table: it is not
// dropped while either is in progress, and each does exactly what it
// does alone. Each has its own shelf of region graphs: the two checks ask
// about the same procedures under the same interned postconditions, so a
// graph of one taken by the other would move both trajectories and the
// shelf counts.
func TestOverlappingRunsKeepTheirTrajectories(t *testing.T) {
	progs := []*cfg.Program{
		drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", false).Config),
		drivers.Generate(drivers.NamedCheck("parport", "PowerDownFail", true).Config),
	}
	solo := make([]trajectory, len(progs))
	for i, p := range progs {
		solo[i] = trajOf(runOne(p, nil, nil))
	}
	probe := logic.Conj(logic.LEq(logic.LinVar("overlap"), logic.LinConst(1)), logic.EQ(logic.LinVar("probe")))
	id := logic.KeyID(probe)
	// Each run waits at its first PUNCH invocation until the other has
	// begun, so the two are in progress together; each notes the probe's
	// id after every invocation: a drop while either runs would change it.
	var started sync.WaitGroup
	started.Add(len(progs))
	got := make([]trajectory, len(progs))
	seen := make([][]logic.ID, len(progs))
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			got[i] = trajOf(runOne(p, nil, tracerFunc(func(ev obs.Event) {
				switch {
				case ev.Type == obs.EvPunchStart && first:
					first = false
					started.Done()
					started.Wait()
				case ev.Type == obs.EvPunchEnd:
					seen[i] = append(seen[i], logic.KeyID(probe))
				}
			})))
		}()
	}
	wg.Wait()
	for i := range progs {
		if solo[i].taken == 0 {
			t.Errorf("run %d alone took no shelved graph: the runs cannot tell their shelves apart", i)
		}
		if got[i] != solo[i] {
			t.Errorf("run %d overlapping another: %+v, alone: %+v", i, got[i], solo[i])
		}
		for _, k := range seen[i] {
			if k != id {
				t.Fatalf("run %d saw the probe as %#x, before the runs it was %#x: the table was dropped while a run was in progress", i, k, id)
			}
		}
	}
	if logic.KeyID(probe) == id {
		t.Error("both runs ended and the table was not dropped")
	}
}
