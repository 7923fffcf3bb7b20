package cfg_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/drivers"
	"repro/internal/lang"
	"repro/internal/parser"
)

// referenceString is the fmt render every non-incremental store's
// fingerprint was taken over. Program.String appends through lang's
// printer and strconv, but must give exactly these bytes.
func referenceString(p *cfg.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nglobals %s\n", p.Name, lang.FormatVars(p.Globals))
	for _, name := range p.ProcNames() {
		proc := p.Procs[name]
		fmt.Fprintf(&b, "proc %s (entry n%d, exit n%d", name, proc.Entry, proc.Exit)
		if len(proc.Locals) > 0 {
			fmt.Fprintf(&b, ", locals %s", lang.FormatVars(proc.Locals))
		}
		fmt.Fprintf(&b, ")\n")
		for _, e := range proc.Edges {
			fmt.Fprintf(&b, "  n%d -> n%d : %s\n", e.From, e.To, e.Stmt)
		}
	}
	return b.String()
}

// TestStringMatchesReferenceRender: on every corpus program and every
// named driver under every property, safe and buggy, Program.String gives
// the bytes of the reference render, so a store fingerprinted before the
// renderer changed still opens.
func TestStringMatchesReferenceRender(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	progs := map[string]*cfg.Program{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = parser.MustParse(string(src))
	}
	for _, d := range drivers.Named() {
		for _, prop := range drivers.PropertyNames() {
			for _, buggy := range []bool{false, true} {
				c := drivers.NamedCheck(d.Name, prop, buggy)
				progs[fmt.Sprint(c.ID(), buggy)] = parser.MustParse(drivers.Source(c.Config))
			}
		}
	}
	for name, prog := range progs {
		if got, want := prog.String(), referenceString(prog); got != want {
			t.Errorf("%s: Program.String differs from the reference render:\n%s\nwant\n%s", name, got, want)
		}
	}
}
