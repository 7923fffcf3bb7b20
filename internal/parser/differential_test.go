package parser_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/incr"
	"repro/internal/parser"
)

// sameProgram reports how got differs from want, the reference front
// end's program, or "" when it does not: the render, every procedure's
// shape, every edge's statement id and the adjacency lists.
func sameProgram(got, want *cfg.Program) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("renders differ:\n%s\nwant\n%s", g, w)
	}
	if got.Name != want.Name || got.Main != want.Main || !slices.Equal(got.Globals, want.Globals) {
		return fmt.Sprintf("program %q main %q globals %v, want %q, %q, %v", got.Name, got.Main, got.Globals, want.Name, want.Main, want.Globals)
	}
	if !slices.Equal(got.ProcNames(), want.ProcNames()) {
		return fmt.Sprintf("procedures %v, want %v", got.ProcNames(), want.ProcNames())
	}
	for name, w := range want.Procs {
		g := got.Procs[name]
		if g.NNodes != w.NNodes || g.Entry != w.Entry || g.Exit != w.Exit || !slices.Equal(g.Locals, w.Locals) || len(g.Edges) != len(w.Edges) {
			return fmt.Sprintf("%s: shape differs", name)
		}
		for i := range w.Edges {
			if g.Edges[i] != w.Edges[i] {
				return fmt.Sprintf("%s: edge %d is %+v, want %+v", name, i, g.Edges[i], w.Edges[i])
			}
		}
		for n := 0; n < w.NNodes; n++ {
			if !slices.Equal(g.Out[n], w.Out[n]) || !slices.Equal(g.In[n], w.In[n]) {
				return fmt.Sprintf("%s: adjacency of n%d differs", name, n)
			}
		}
	}
	return ""
}

// sameError reports how got differs from want, the reference front
// end's error, or "" when it does not: a *parser.Error at the same line
// and column with the same message, or another error with the same text.
func sameError(got, want error) string {
	var g, w *parser.Error
	if errors.As(want, &w) {
		if !errors.As(got, &g) || *g != *w {
			return fmt.Sprintf("error %#v, want %#v", got, want)
		}
		return ""
	}
	if errors.As(got, &g) || got.Error() != want.Error() {
		return fmt.Sprintf("error %#v, want %#v", got, want)
	}
	return ""
}

// against parses src through both front ends and reports a difference.
func against(src string) string {
	got, gerr := parser.Parse(src)
	want, werr := parser.RefParse(src)
	switch {
	case werr != nil && gerr != nil:
		return sameError(gerr, werr)
	case werr != nil:
		return fmt.Sprintf("parsed, want error %v", werr)
	case gerr != nil:
		return fmt.Sprintf("error %v, want a program", gerr)
	}
	if d := sameProgram(got, want); d != "" {
		return d
	}
	for _, name := range got.ProcNames() {
		// The lowering sizes each procedure's edges by counting them
		// first: an exact count fills the room it made, a short one
		// makes AddEdge regrow the slice, which leaves spare capacity.
		if p := got.Procs[name]; cap(p.Edges) != len(p.Edges) {
			return fmt.Sprintf("%s: %d edges in room for %d: the lowering miscounts them", name, len(p.Edges), cap(p.Edges))
		}
	}
	if g, w := incr.Snapshot(got), incr.Snapshot(want); !maps.Equal(g, w) {
		return "manifests differ"
	}
	return ""
}

// TestFrontEndMatchesReference: the corpus, every suite program (each
// named driver under each property, safe and buggy) and every edit of the
// benchmark's edit session parse to the program the reference front end
// gives, byte for byte, statement id for statement id and fingerprint
// for fingerprint.
func TestFrontEndMatchesReference(t *testing.T) {
	srcs := map[string]string{}
	files, err := filepath.Glob("../../testdata/corpus/*.bolt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for _, d := range drivers.Named() {
		for _, prop := range drivers.PropertyNames() {
			for _, buggy := range []bool{false, true} {
				c := drivers.NamedCheck(d.Name, prop, buggy)
				srcs[fmt.Sprint(c.ID(), buggy)] = drivers.Source(c.Config)
			}
		}
	}
	if n := len(srcs) - len(files); n != 990 {
		t.Fatalf("%d suite programs, want 990", n)
	}
	// The edit session of the benchmark at seed 0: on each of the parport
	// four, one cumulative edit per procedure, in name order.
	edits := 0
	rng := rand.New(rand.NewSource(17))
	for _, c := range harness.Table1Checks()[2:] {
		src := drivers.Source(c.Config)
		for _, proc := range parser.MustParse(src).ProcNames() {
			if src, err = incr.MutateSource(src, proc, rng.Int63()); err != nil {
				t.Fatal(err)
			}
			srcs[fmt.Sprintf("edit %s:%s", c.ID(), proc)] = src
			edits++
		}
	}
	if edits != 44 {
		t.Fatalf("%d edits, want 44", edits)
	}
	for name, src := range srcs {
		if d := against(src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestFrontEndErrorsMatchReference: damaged programs — every prefix of a
// corpus program at each of its lines, and a stray byte at each offset of
// a small one — fail with the reference front end's error, at its line
// and column, or parse to its program.
func TestFrontEndErrorsMatchReference(t *testing.T) {
	b, err := os.ReadFile("../../testdata/corpus/safe_params_clamp.bolt")
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	for i := range src {
		if src[i] == '\n' || i%7 == 0 {
			if d := against(src[:i]); d != "" {
				t.Errorf("prefix of %d bytes: %s", i, d)
			}
		}
	}
	for _, stray := range []string{"$", "é", "\xff", "/*", "99999999999999999999", "(", ")", "==", "&", "//"} {
		for i := 0; i <= len(src); i += 5 {
			if d := against(src[:i] + stray + src[i:]); d != "" {
				t.Errorf("%q at %d: %s", stray, i, d)
			}
		}
	}
}

// FuzzParseAgainstReference: on arbitrary text the front end gives the
// program the reference front end gives, or the same error at the same
// line and column; so does a standalone guard (ParseBoolExpr).
func FuzzParseAgainstReference(f *testing.F) {
	f.Add("proc main { x = 99999999999999999999; }")
	f.Add("proc main { assume((x + 1) > 0 && (y < 2 || !(z == 3))); } $")
	f.Add("proc f(a) { return a * 2; } proc main { locals r; r = f(3); assert(r == 6); }")
	f.Add("proc main { /* é unterminated")
	f.Add("proc main { x = 1 } // é\n\xff")
	f.Add("proc f(a) { skip; } proc f { skip; } proc main { skip; }")
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.bolt"))
	for _, name := range files {
		if src, err := os.ReadFile(name); err == nil {
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // nesting is bounded by length; long inputs only slow the run
		}
		if d := against(src); d != "" {
			t.Fatalf("Parse(%q): %s", src, d)
		}
		got, gerr := parser.ParseBoolExpr(src)
		want, werr := parser.RefParseBoolExpr(src)
		switch {
		case werr != nil && gerr != nil:
			if d := sameError(gerr, werr); d != "" {
				t.Fatalf("ParseBoolExpr(%q): %s", src, d)
			}
		case (werr == nil) != (gerr == nil) || got != want:
			t.Fatalf("ParseBoolExpr(%q) = %v, %v, want %v, %v", src, got, gerr, want, werr)
		}
	})
}
