package bolt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions under internal/ that no
// non-test code of this module calls, each kept for the reason given.
// Anything else with no caller goes, or moves into its package's
// export_test.go.
var testOnlyExports = map[string]string{
	"cfg.MustProgram":             "builds the hand-made CFG fixtures of three packages' tests",
	"harness.RunEditSession":      "the edit-session driver `make incr-smoke` runs",
	"prov.Provenance.StableBytes": "the schedule-invariant oracle prov-smoke compares engines by",
	"prov.Provenance.Verify":      "the structural oracle prov-smoke asserts",
	"store.CorruptError.Unwrap":   "errors.Is/As reach the cause through it",
	"witness.Trace.Replay":        "the benchmark (bench/, its own module) replays witnesses with it",
}

// TestNoDeadExports is a structural lint: every exported function or
// method under internal/ is named somewhere in the module's non-test
// code outside its own declaration, or is listed in testOnlyExports.
// The scan is by name, so it errs towards keeping: a name used by
// anything else counts as used.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []string
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if strings.HasPrefix(path, "internal/") && fd.Name.IsExported() {
				decls = append(decls, f.Name.Name+"."+recvName(fd)+fd.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported functions: the lint is looking at the wrong files", len(decls))
	}
	for _, d := range decls {
		_, allowed := testOnlyExports[d]
		if used[d[strings.LastIndex(d, ".")+1:]] {
			if allowed {
				t.Errorf("%s has a non-test caller now: drop it from testOnlyExports", d)
			}
		} else if !allowed {
			t.Errorf("%s has no non-test caller: delete it, or move it into its package's export_test.go", d)
		}
	}
	for d := range testOnlyExports {
		if !slices.Contains(decls, d) {
			t.Errorf("testOnlyExports lists %s, which no longer exists", d)
		}
	}
}

// recvName returns "T." for a method on T or *T, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	}
	return typ.(*ast.Ident).Name + "."
}
