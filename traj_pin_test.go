package bolt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	bolt "repro"
	"repro/internal/drivers"
	"repro/internal/harness"
)

var (
	updateTraj = flag.Bool("update-traj", false, "rewrite testdata/traj_pin.golden from this run")
	trajDiff   = flag.Bool("traj-diff", false, "print every row that moved against testdata/traj_pin.golden, old → new with column totals; fail only on a changed verdict")
)

// trajBudget bounds every pinned check. The may analysis never converges
// on the two looping corpus programs and only burns its budget; everything
// else decides well inside it.
const trajBudget = 25000

// TestTrajectoryPin holds the one-thread trajectory of the analyses
// still: verdict, virtual ticks, query count and solver calls of the six
// Table-1 checks and of every corpus program under all three
// analyses must equal the golden table — first on the barrier engine, then
// (rows tagged "async") on the streaming engine, whose single worker never
// steals and so replays the same order every run: that pins the streaming
// REDUCE discipline (rewake, wake-self on a Done twin, obsolete results
// after GC) as tightly as the barrier one. A change that only makes the same
// work cheaper passes untouched; a change that moves the trajectory has to
// say so by regenerating the table (go test -run TestTrajectoryPin
// -update-traj .) and by showing what moved (make traj-diff, before the
// regeneration).
func TestTrajectoryPin(t *testing.T) {
	type input struct {
		name, src string
		analyses  []bolt.Analysis
		budget    int64
	}
	var inputs []input
	for _, c := range harness.Table1Checks() {
		inputs = append(inputs, input{c.ID(), drivers.Source(c.Config), []bolt.Analysis{bolt.MayMust}, 0})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.bolt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), string(src), []bolt.Analysis{bolt.Must, bolt.May, bolt.MayMust}, trajBudget})
	}

	var got []string
	for _, async := range []bool{false, true} {
		tag := ""
		if async {
			tag = " async"
		}
		for _, in := range inputs {
			prog, err := bolt.Parse(in.src)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			for _, a := range in.analyses {
				r := prog.Check(bolt.Options{Analysis: a, Threads: 1, Async: async, MaxVirtualTicks: in.budget})
				got = append(got, fmt.Sprintf("%s %s%s verdict=%d ticks=%d queries=%d sat=%d",
					in.name, a, tag, int(r.Verdict), r.VirtualTicks, r.TotalQueries, r.Solver.SatCalls))
			}
		}
	}

	golden := filepath.Join("testdata", "traj_pin.golden")
	if *updateTraj {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
	if *trajDiff {
		diffTrajectories(t, want, got)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trajectory moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// diffTrajectories prints the rows of got that differ from want, column
// by column as old → new, and the totals of every column over all rows. A
// trajectory may move on purpose; a verdict may not, so only that fails.
func diffTrajectories(t *testing.T, want, got []string) {
	cols := []string{"verdict", "ticks", "queries", "sat"}
	parse := func(row string) (name string, vals [4]int64) {
		i := strings.Index(row, " verdict=")
		if _, err := fmt.Sscanf(row[i+1:], "verdict=%d ticks=%d queries=%d sat=%d", &vals[0], &vals[1], &vals[2], &vals[3]); err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		return row[:i], vals
	}
	var oldSum, newSum [4]int64
	moved := 0
	for i := range got {
		name, o := parse(want[i])
		gotName, n := parse(got[i])
		if gotName != name {
			t.Fatalf("row %d is %q, golden has %q", i, gotName, name)
		}
		line := name
		for c := range cols {
			oldSum[c] += o[c]
			newSum[c] += n[c]
			if o[c] != n[c] {
				line += fmt.Sprintf(" %s %d → %d", cols[c], o[c], n[c])
			}
		}
		if o[0] != n[0] {
			t.Errorf("verdict changed: %s", line)
		}
		if line != name {
			moved++
			fmt.Println(line)
		}
	}
	fmt.Printf("%d of %d rows moved; totals:", moved, len(got))
	for c := range cols[1:] {
		fmt.Printf(" %s %d → %d", cols[c+1], oldSum[c+1], newSum[c+1])
	}
	fmt.Println()
}
