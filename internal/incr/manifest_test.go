package incr_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cfg"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/incr"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/wire"
)

// referenceProc is the fmt render every stored manifest was written
// with. Snapshot appends through lang's printer and strconv, but must
// hash exactly these bytes.
func referenceProc(p *cfg.Proc) string {
	var b []byte
	b = append(b, fmt.Sprintf("proc %s entry n%d exit n%d nodes %d\n", p.Name, p.Entry, p.Exit, p.NNodes)...)
	if len(p.Locals) > 0 {
		b = append(b, fmt.Sprintf("locals %s\n", lang.FormatVars(p.Locals))...)
	}
	for _, e := range p.Edges {
		b = append(b, fmt.Sprintf("n%d -> n%d : %s\n", e.From, e.To, e.Stmt)...)
	}
	return string(b)
}

func referenceSnapshot(prog *cfg.Program) incr.Manifest {
	m := incr.Manifest{}
	for name, p := range prog.Procs {
		m[name] = store.NewFingerprint("bolt/proc-fp", strconv.Itoa(wire.Version), lang.FormatVars(prog.Globals), referenceProc(p))
	}
	return m
}

// TestSnapshotMatchesReferenceRender: on every corpus program and the
// Table-1 drivers, Snapshot gives the fingerprints of the reference
// render, procedure by procedure, so a store written before the
// renderer changed reopens without a full invalidation.
func TestSnapshotMatchesReferenceRender(t *testing.T) {
	progs := map[string]*cfg.Program{}
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = parser.MustParse(string(src))
	}
	for _, c := range harness.Table1Checks() {
		progs[c.ID()] = parser.MustParse(drivers.Source(c.Config))
	}
	for name, prog := range progs {
		got, want := incr.Snapshot(prog), referenceSnapshot(prog)
		if len(got) != len(want) {
			t.Fatalf("%s: %d procedures fingerprinted, want %d", name, len(got), len(want))
		}
		for proc, fp := range want {
			if got[proc] != fp {
				t.Errorf("%s: procedure %s fingerprints as %s, the reference render as %s", name, proc, got[proc], fp)
			}
		}
	}
}

// snapshotAllocBudget is what one Snapshot of parport/PowerDownFail may
// allocate: the 37 allocations measured when every edge came to be
// appended through lang's printer into one buffer per procedure (150 when
// each of its 35 distinct statements was rendered once through fmt into
// a string of its own, 590 when every one of its 193 edges was), plus
// 10 %.
const snapshotAllocBudget = 41

// TestSnapshotAllocPin: Snapshot renders the edges of a procedure into
// one buffer, allocating nothing per edge or statement.
func TestSnapshotAllocPin(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are not held under the race detector")
	}
	prog := parser.MustParse(drivers.Source(drivers.NamedCheck("parport", "PowerDownFail", false).Config))
	if n := testing.AllocsPerRun(20, func() { incr.Snapshot(prog) }); n > snapshotAllocBudget {
		t.Errorf("Snapshot allocates %v times, budget %d: something allocates per edge or statement again", n, snapshotAllocBudget)
	}
}
