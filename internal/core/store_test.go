package core

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
)

// warmSrc exercises the interprocedural path: summaries for the callees
// are what the persistent store carries between runs.
const warmSrc = `globals g, c;
proc main { havoc c; g = 0; if (c > 0) { left(); } else { right(); } assert(g <= 3); }
proc left { shared(); }
proc right { shared(); g = g + 1; }
proc shared { g = g + 2; }`

func runWithStore(t *testing.T, src string, async bool, st store.Store) Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(prog, Options{
		Punch:         maymust.New(),
		MaxThreads:    4,
		MaxIterations: 3000,
		CheckContract: true,
		Async:         async,
		Store:         st,
	})
	return eng.Run(AssertionQuestion(prog))
}

// TestWarmStart: a cold run persists its summaries, a warm run loads
// them, and the verdict is confluent — on both single-machine engines
// and for both store backends.
func TestWarmStart(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async bool
	}{{"barrier", false}, {"async", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, backend := range []string{"mem", "disk"} {
				t.Run(backend, func(t *testing.T) {
					fp := store.NewFingerprint("core-test", warmSrc)
					dir := t.TempDir()
					mem := store.NewMem()
					get := func() store.Store {
						if backend == "mem" {
							return mem
						}
						d, err := store.OpenDisk(dir, fp, false)
						if err != nil {
							t.Fatal(err)
						}
						return d
					}

					st := get()
					cold := runWithStore(t, warmSrc, tc.async, st)
					if cold.StoreErr != nil {
						t.Fatalf("cold run store error: %v", cold.StoreErr)
					}
					if cold.WarmSummaries != 0 {
						t.Fatalf("cold run loaded %d summaries from an empty store", cold.WarmSummaries)
					}
					if cold.PersistedSummaries == 0 {
						t.Fatal("cold run persisted no summaries")
					}
					if backend == "disk" {
						if err := st.Close(); err != nil {
							t.Fatal(err)
						}
					}

					st = get()
					warm := runWithStore(t, warmSrc, tc.async, st)
					if warm.StoreErr != nil {
						t.Fatalf("warm run store error: %v", warm.StoreErr)
					}
					if warm.WarmSummaries != cold.PersistedSummaries {
						t.Fatalf("warm run loaded %d summaries, cold persisted %d", warm.WarmSummaries, cold.PersistedSummaries)
					}
					if warm.Verdict != cold.Verdict {
						t.Fatalf("verdict diverged cold vs warm: %v vs %v", cold.Verdict, warm.Verdict)
					}
					if warm.VirtualTicks > cold.VirtualTicks {
						t.Errorf("warm run slower than cold: %d > %d ticks", warm.VirtualTicks, cold.VirtualTicks)
					}
					if backend == "disk" {
						if err := st.Close(); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestWarmStartDistributed: the cluster engine routes warm summaries to
// their owning nodes and persists the union of all node databases.
func TestWarmStartDistributed(t *testing.T) {
	prog, err := parser.Parse(warmSrc)
	if err != nil {
		t.Fatal(err)
	}
	fp := store.NewFingerprint("core-test-dist", warmSrc)
	dir := t.TempDir()
	q := AssertionQuestion(prog)

	runDist := func(st store.Store) Result {
		return NewDistributed(prog, DistOptions{
			Punch:          maymust.New(),
			Nodes:          3,
			ThreadsPerNode: 2,
			MaxRounds:      1 << 18,
			Store:          st,
		}).Run(q)
	}

	st, err := store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	cold := runDist(st)
	if cold.StoreErr != nil {
		t.Fatalf("cold run store error: %v", cold.StoreErr)
	}
	if cold.PersistedSummaries == 0 {
		t.Fatal("cold distributed run persisted no summaries")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.OpenDisk(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	warm := runDist(st)
	if warm.StoreErr != nil {
		t.Fatalf("warm run store error: %v", warm.StoreErr)
	}
	if warm.WarmSummaries == 0 {
		t.Fatal("warm distributed run loaded no summaries")
	}
	if warm.Verdict != cold.Verdict {
		t.Fatalf("verdict diverged cold vs warm: %v vs %v", cold.Verdict, warm.Verdict)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartVerdictConfluence sweeps a small program matrix across
// all three engines: whatever the cold run answers, a warm re-run from
// the store it wrote must answer identically. Summaries are sound facts
// about the fingerprinted program, so the verdict cannot flip.
func TestWarmStartVerdictConfluence(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"safe-calls", `globals g;
			proc main { g = 5; bump(); assert(g >= 6); }
			proc bump { g = g + 1; }`},
		{"buggy-calls", `globals g;
			proc main { g = 5; bump(); assert(g >= 7); }
			proc bump { g = g + 1; }`},
		{"safe-nested", `globals a, b;
			proc main { a = 0; b = 0; level1(); assert(a + b <= 4); }
			proc level1 { a = a + 1; level2(); a = a + 1; }
			proc level2 { b = b + 1; level3(); }
			proc level3 { b = b + 1; }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := parser.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			q := AssertionQuestion(prog)
			for _, engine := range []string{"barrier", "async", "dist"} {
				t.Run(engine, func(t *testing.T) {
					mem := store.NewMem()
					run := func() (Verdict, error) {
						if engine == "dist" {
							r := NewDistributed(prog, DistOptions{
								Punch:          maymust.New(),
								Nodes:          2,
								ThreadsPerNode: 2,
								MaxRounds:      1 << 18,
								Store:          mem,
							}).Run(q)
							return r.Verdict, r.StoreErr
						}
						eng := New(prog, Options{
							Punch:         maymust.New(),
							MaxThreads:    4,
							MaxIterations: 3000,
							CheckContract: true,
							Async:         engine == "async",
							Store:         mem,
						})
						r := eng.Run(q)
						return r.Verdict, r.StoreErr
					}
					cold, err := run()
					if err != nil {
						t.Fatal(err)
					}
					warm, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if warm != cold {
						t.Fatalf("verdict diverged cold vs warm: %v vs %v", cold, warm)
					}
				})
			}
		})
	}
}
