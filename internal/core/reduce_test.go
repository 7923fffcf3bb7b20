package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/summary"
)

// Every cluster run of this package's tests validates the PUNCH contract
// and the reducer's invariants, as the shared-memory suites do through
// Options.CheckContract.
func init() { distCheckContract = true }

// scriptedResult is one PUNCH result of the reducer script: the query it
// belongs to, the state it comes back in, and the children it carries.
// Queries are named by procedure; "s#2" is a second question about s.
type scriptedResult struct {
	run   string
	state query.State
	spawn []string
}

// scriptStep is one REDUCE of the script — a batch of results applied in
// order, then retired in order, which for a batch of one is the streaming
// discipline — with everything the reducer must have done by its end.
type scriptStep struct {
	name    string
	running []string // queries that enter PUNCH before the batch lands
	batch   []scriptedResult

	apply, retire []string // runnable queries the two phases hand back
	live          []string // forest content afterwards
	edges         []string // waiter edges afterwards, "twin<-waiter"
	hits          int64    // coalesce hits so far
	done          int64    // Done results applied so far
	collected     int64    // queries collected so far
	answered      bool     // the root's answer was read
}

// reducerScript drives every path of apply and retire once. IDs: main 0,
// a 1, b 2, s 3, s#2 4 (coalesced away), b#2 5, c 6, c#2 7 (coalesced
// away), d 8.
var reducerScript = []scriptStep{
	{name: "spawn",
		batch: []scriptedResult{{"main", query.Blocked, []string{"a", "b"}}},
		apply: []string{"a", "b"}, live: []string{"main", "a", "b"}},
	{name: "spawn into the other tree",
		batch: []scriptedResult{{"a", query.Blocked, []string{"s"}}},
		apply: []string{"s"}, live: []string{"main", "a", "b", "s"}},
	{name: "coalesce onto a live twin",
		batch: []scriptedResult{{"b", query.Blocked, []string{"s#2"}}},
		live:  []string{"main", "a", "b", "s"}, edges: []string{"s<-b"}, hits: 1},
	{name: "cycle refusal: s asks what b asks, and b waits for s",
		batch: []scriptedResult{{"s", query.Blocked, []string{"b#2"}}},
		apply: []string{"b#2"}, live: []string{"main", "a", "b", "s", "b#2"}, edges: []string{"s<-b"}, hits: 1},
	{name: "Done wakes its parent and is collected",
		batch:  []scriptedResult{{"b#2", query.Done, nil}},
		retire: []string{"s"}, live: []string{"main", "a", "b", "s"}, edges: []string{"s<-b"}, hits: 1, done: 1, collected: 1},
	{name: "Done with a waiter in another tree",
		batch:  []scriptedResult{{"s", query.Done, nil}},
		retire: []string{"a", "b"}, live: []string{"main", "a", "b"}, hits: 1, done: 2, collected: 2},
	{name: "spawn again",
		batch: []scriptedResult{{"a", query.Blocked, []string{"c"}}},
		apply: []string{"c"}, live: []string{"main", "a", "b", "c"}, hits: 1, done: 2, collected: 2},
	// The reason REDUCE has two phases: c is Done and b asks c's question
	// in the same batch. b finds the Done twin because nothing is retired
	// until everything is applied, drops the duplicate and runs again.
	{name: "coalesce onto a Done twin of the same batch",
		batch: []scriptedResult{{"c", query.Done, nil}, {"b", query.Blocked, []string{"c#2"}}},
		apply: []string{"b"}, retire: []string{"a"}, live: []string{"main", "a", "b"}, hits: 2, done: 3, collected: 3},
	{name: "a Ready result queues itself after its children",
		batch: []scriptedResult{{"b", query.Ready, []string{"d"}}},
		apply: []string{"d", "b"}, live: []string{"main", "a", "b", "d"}, hits: 2, done: 3, collected: 3},
	{name: "Done whose subtree holds a running query",
		running: []string{"d"},
		batch:   []scriptedResult{{"b", query.Done, nil}},
		retire:  []string{"main"}, live: []string{"main", "a"}, hits: 2, done: 4, collected: 5},
	{name: "obsolete result of the collected query",
		batch: []scriptedResult{{"d", query.Done, nil}},
		live:  []string{"main", "a"}, hits: 2, done: 4, collected: 5},
	{name: "Done while the parent is inside PUNCH arms its rewake",
		running: []string{"main"},
		batch:   []scriptedResult{{"a", query.Done, nil}},
		live:    []string{"main"}, hits: 2, done: 5, collected: 6},
	{name: "a rewoken query that comes back Blocked runs again",
		batch: []scriptedResult{{"main", query.Blocked, nil}},
		apply: []string{"main"}, live: []string{"main"}, hits: 2, done: 5, collected: 6},
	{name: "root answered",
		batch: []scriptedResult{{"main", query.Done, nil}},
		live:  []string{"main"}, hits: 2, done: 6, collected: 6, answered: true},
}

// TestReducerScript feeds the script through apply and retire on a
// one-tree forest and on a two-tree forest that puts s in a tree of its
// own, so that spawn, coalescing and both wake-ups cross trees. What comes
// back and what is left behind must be the same on both; CheckContract
// adds the reducer's own invariant check after every retire.
func TestReducerScript(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	forests := []struct {
		name  string
		trees int
		home  func(string) int
	}{
		{"one tree", 1, nil},
		{"two trees", 2, func(proc string) int {
			if proc == "s" {
				return 1
			}
			return 0
		}},
	}
	for _, f := range forests {
		t.Run(f.name, func(t *testing.T) {
			rec := &obs.Recording{}
			m := obs.NewMetrics()
			r := newReducer(prog, Options{CheckContract: true, Tracer: rec, Metrics: m}, "script", f.trees, 1, f.home)
			if !r.begin(summary.Question{Proc: "main"}) {
				t.Fatal("begin reported nothing to schedule")
			}
			defer r.end()
			r.running, r.rewake = map[query.ID]bool{}, map[query.ID]bool{}
			byName := map[string]*query.Query{"main": r.forest[0].Get(r.root)}
			nameOf := map[query.ID]string{r.root: "main"}
			names := func(qs []*query.Query) []string {
				var out []string
				for _, q := range qs {
					out = append(out, nameOf[q.ID])
				}
				return out
			}
			for _, st := range reducerScript {
				for _, n := range st.running {
					r.running[byName[n].ID] = true
				}
				var applied, retired []string
				var results []punch.Result
				answered := false
				for _, sr := range st.batch {
					q := byName[sr.run]
					delete(r.running, q.ID)
					// PUNCH mutates the query in place and returns it as Self.
					q.State = sr.state
					if sr.state == query.Done {
						q.Outcome = query.Unreachable
					}
					res := punch.Result{Self: q, Cost: 1}
					for _, n := range sr.spawn {
						proc, _, _ := strings.Cut(n, "#")
						c := r.alloc.New(q.ID, summary.Question{Proc: proc})
						byName[n], nameOf[c.ID] = c, n
						res.Children = append(res.Children, c)
					}
					_, live := r.find(q.ID)
					node := r.route(q.Q.Proc)
					applied = append(applied, names(r.apply(node, 0, q, res))...)
					if live == nil && r.forest[node].Get(q.ID) != nil {
						t.Fatalf("%s: an obsolete result put %s back", st.name, sr.run)
					}
					answered = r.answered(res.Self) || answered
					results = append(results, res)
				}
				for _, res := range results {
					if !answered && res.Self.State == query.Done {
						retired = append(retired, names(r.retire(r.route(res.Self.Q.Proc), 0, res.Self))...)
					}
				}

				var live, edges []string
				for i, tr := range r.forest {
					for _, q := range tr.All() {
						live = append(live, nameOf[q.ID])
						if at := r.route(q.Q.Proc); at != i {
							t.Errorf("%s: %s lives in tree %d, its procedure's home is %d", st.name, nameOf[q.ID], i, at)
						}
					}
					tr.EachWaiterEdge(func(twin, waiter query.ID) {
						edges = append(edges, nameOf[twin]+"<-"+nameOf[waiter])
					})
				}
				sort.Strings(live)
				want := append([]string(nil), st.live...)
				sort.Strings(want)
				const shape = "apply %v retire %v live %v edges %v hits %d done %d collected %d answered %v"
				got := fmt.Sprintf(shape, applied, retired, live, edges, r.res.CoalesceHits, r.done, r.collected, answered)
				exp := fmt.Sprintf(shape, st.apply, st.retire, want, st.edges, st.hits, st.done, st.collected, st.answered)
				if got != exp {
					t.Fatalf("%s:\n got  %s\n want %s", st.name, got, exp)
				}
			}
			if r.res.Verdict != Safe {
				t.Errorf("verdict = %v, want Safe", r.res.Verdict)
			}
			// 6 + 3 queries were created; the two coalesced children were
			// allocated an ID and nothing else.
			if r.created != 7 || r.alloc.Count() != 9 {
				t.Errorf("created %d queries out of %d IDs, want 7 of 9", r.created, r.alloc.Count())
			}
			// A Done-twin coalesce reads, on every scheduler, as the streaming
			// engine always reported it: the duplicate is coalesced, the
			// spawner blocks, and is woken at once — a rewake.
			var bEvents []obs.EventType
			for _, ev := range rec.Events() {
				if ev.Query == byName["b"].ID || ev.Query == byName["c#2"].ID {
					bEvents = append(bEvents, ev.Type)
				}
			}
			tail := []obs.EventType{obs.EvCoalesce, obs.EvBlock, obs.EvWake}
			found := false
			for i := 0; i+len(tail) <= len(bEvents); i++ {
				found = found || reflect.DeepEqual(bEvents[i:i+len(tail)], tail)
			}
			if !found {
				t.Errorf("events about b and c#2 = %v, want %v in a row", bEvents, tail)
			}
			if got := m.Snapshot().Counters["rewakes"]; got != 2 {
				t.Errorf("rewakes = %d, want 2 (the Done-twin coalesce and the mid-flight completion)", got)
			}
		})
	}
}

// doneTwinPunch scripts a batch in which one result is Done and another
// asks the Done query's question: main spawns left and right; left spawns
// shared at once, right only on its second slice — the stage in which
// shared completes.
type doneTwinPunch struct {
	mu    sync.Mutex
	calls map[query.ID]int
	done  map[string]bool
}

func (p *doneTwinPunch) Name() string { return "done-twin" }

func (p *doneTwinPunch) Step(ctx *punch.Context, qr *query.Query) punch.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[qr.ID]++
	n := p.calls[qr.ID]
	res := punch.Result{Self: qr, Cost: 1}
	spawn := func(procs ...string) {
		for _, proc := range procs {
			res.Children = append(res.Children, ctx.Alloc.New(qr.ID, summary.Question{Proc: proc}))
		}
		qr.State = query.Blocked
	}
	finish := func() {
		qr.State, qr.Outcome = query.Done, query.Unreachable
		p.done[qr.Q.Proc] = true
	}
	switch proc := qr.Q.Proc; {
	case proc == "main" && n == 1:
		spawn("left", "right")
	case proc == "main" && p.done["left"] && p.done["right"]:
		finish()
	case proc == "left" && n == 1:
		spawn("shared")
	case proc == "right" && n == 1:
		qr.State = query.Ready // slice exhausted
	case proc == "right" && n == 2:
		spawn("shared")
	case proc == "shared" || p.done["shared"]:
		finish()
	default:
		qr.State = query.Blocked
	}
	return res
}

// TestDoneTwinCoalesceReadsAlikeOnBatchEngines: the barrier engine and
// the cluster report a spawn answered by a Done twin as the streaming
// engine does — coalesce, block, wake, one rewake — instead of flipping
// the spawner's state silently.
func TestDoneTwinCoalesceReadsAlikeOnBatchEngines(t *testing.T) {
	prog := parser.MustParse(`proc main { locals x; x = 1; assert(x > 0); }`)
	q0 := summary.Question{Proc: "main"}
	engines := map[string]func(punch.Punch, obs.Tracer, *obs.Metrics) (Verdict, int64){
		"barrier": func(p punch.Punch, tr obs.Tracer, m *obs.Metrics) (Verdict, int64) {
			res := New(prog, Options{Punch: p, MaxThreads: 4, MaxIterations: 100, CheckContract: true, Tracer: tr, Metrics: m}).Run(q0)
			return res.Verdict, res.CoalesceHits
		},
		"dist": func(p punch.Punch, tr obs.Tracer, m *obs.Metrics) (Verdict, int64) {
			res := NewDistributed(prog, DistOptions{Punch: p, Nodes: 2, ThreadsPerNode: 4, MaxRounds: 100, Tracer: tr, Metrics: m}).Run(q0)
			return res.Verdict, res.CoalesceHits
		},
	}
	for name, run := range engines {
		rec, m := &obs.Recording{}, obs.NewMetrics()
		verdict, hits := run(&doneTwinPunch{calls: map[query.ID]int{}, done: map[string]bool{}}, rec, m)
		if verdict != Safe || hits != 1 {
			t.Fatalf("%s: verdict %v with %d coalesce hits, want Safe with 1", name, verdict, hits)
		}
		var after []obs.EventType
		for _, ev := range rec.Events() {
			if ev.Type == obs.EvCoalesce || len(after) > 0 && len(after) < 3 {
				after = append(after, ev.Type)
			}
		}
		if want := []obs.EventType{obs.EvCoalesce, obs.EvBlock, obs.EvWake}; !reflect.DeepEqual(after, want) {
			t.Errorf("%s: events from the coalesce on = %v, want %v", name, after, want)
		}
		if got := m.Snapshot().Counters["rewakes"]; got != 1 {
			t.Errorf("%s: rewakes = %d, want 1", name, got)
		}
	}
}

// TestOneReduce is a structural lint: the operations that make up REDUCE
// and a run's set-up and tear-down — child insertion and coalescing, the
// Done fan-out, waiter clearing, subtree GC, the PUNCH wrapper and its
// recording frame, the summary events, incremental prep, store hydration
// and persist, provenance finish — may be called from reduce.go only. The three engines once each carried a
// copy; a fourth cannot grow back unnoticed. Likewise there is one batch
// scheduler: the MAP fan-out, the stage clock and batch REDUCE each have
// exactly one call site, the round loop in engine.go. Comments and
// definitions do not count.
func TestOneReduce(t *testing.T) {
	calls := []string{
		"RemoveSubtree(", "AddWaiter(", "ClearWaiters(", "WouldCycle(",
		"obs.EvSumRead", "obs.EvSumAdd", "prov.Frame{", "fold.Finish(",
		"prepareIncr(", "Store.Load()", "Store.Put(",
		"logic.BeginRun(", "logic.EndRun(",
	}
	batchCalls := map[string][]string{"fanOut(": nil, "advance(": nil, "reduceBatch(": nil}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if strings.HasPrefix(code, "func ") {
				continue
			}
			for _, c := range calls {
				if !strings.Contains(code, c) {
					continue
				}
				if file == "reduce.go" {
					seen = true
				} else {
					t.Errorf("%s:%d calls %s — only reduce.go may", file, i+1, c)
				}
			}
			for c := range batchCalls {
				for n := strings.Count(code, c); n > 0; n-- {
					batchCalls[c] = append(batchCalls[c], fmt.Sprintf("%s:%d", file, i+1))
				}
			}
		}
	}
	if !seen {
		t.Error("reduce.go calls none of the guarded operations: the lint is looking at the wrong files")
	}
	for c, sites := range batchCalls {
		if len(sites) != 1 || !strings.HasPrefix(sites[0], "engine.go:") {
			t.Errorf("%s is called at %v, want once, in the round loop in engine.go", c, sites)
		}
	}
}
