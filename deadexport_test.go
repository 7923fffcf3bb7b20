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

// testOnlyExports are the exported functions and types under internal/
// that no non-test code of this module names, and those of the root
// package bolt that no non-test code in cmd/, examples/ or bench/ names,
// each kept for the reason given.
// Anything else with no caller goes, or moves into its package's
// export_test.go.
var testOnlyExports = map[string]string{
	"bolt.Program.CheckContext":      "Check with cancellation; the public entry point TestCheckContextCancelled cancels",
	"bolt.Program.CheckReachContext": "CheckReach with cancellation; the public entry point TestCheckContextCancelled cancels",
	"cfg.MustProgram":                "builds the hand-made CFG fixtures of three packages' tests",
	"harness.RunEditSession":         "the edit-session driver `make incr-smoke` runs",
	"logic.InternStats":              "the benchmark (bench/, its own module) derives logic.hashcons_hit_share from it",
	"prov.Provenance.StableBytes":    "the schedule-invariant oracle prov-smoke compares engines by",
	"prov.Provenance.Verify":         "the structural oracle prov-smoke asserts",
	"store.CorruptError.Unwrap":      "errors.Is/As reach the cause through it",
	"witness.Trace.Replay":           "the benchmark (bench/, its own module) replays witnesses with it",
}

// TestNoDeadExports is a structural lint: every exported function,
// method or type under internal/ is named somewhere in the module's
// non-test code outside its own declaration, every one of the root
// package bolt by non-test code in cmd/, examples/ or bench/ (the
// facade's users, so no mirror type grows back into it), or it is listed
// in testOnlyExports.
// The scan is by name, so it errs towards keeping: a name used by
// anything else counts as used.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []string
	// used holds the names this module's non-test code names; front those
	// named in cmd/, examples/ and bench/ (a module of its own).
	used, front := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		facade := !strings.Contains(path, "/")
		user := strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "examples/") || strings.HasPrefix(path, "bench/")
		own := map[*ast.Ident]bool{}
		declare := func(name *ast.Ident, qual string) {
			own[name] = true
			if (facade || strings.HasPrefix(path, "internal/")) && name.IsExported() {
				decls = append(decls, f.Name.Name+"."+qual+name.Name)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Name, recvName(d))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						declare(ts.Name, "")
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				if !strings.HasPrefix(path, "bench/") {
					used[id.Name] = true
				}
				if user {
					front[id.Name] = true
				}
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
		name, users := d[strings.LastIndex(d, ".")+1:], used
		if strings.HasPrefix(d, "bolt.") {
			users = front
		}
		if users[name] {
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
	switch ix := typ.(type) {
	case *ast.IndexExpr:
		typ = ix.X
	case *ast.IndexListExpr:
		typ = ix.X
	}
	return typ.(*ast.Ident).Name + "."
}

// optionStructs are the option types TestNoDeadOptions checks, by
// declaring directory. The first three face the command lines, the
// benchmark and the examples; the two in internal/core are what those
// map onto.
var optionStructs = []struct{ dir, pkg, typ string }{
	{".", "bolt", "Options"},
	{".", "bolt", "DistOptions"},
	{"internal/harness", "harness", "Options"},
	{"internal/core", "core", "Options"},
	{"internal/core", "core", "DistOptions"},
}

// unsetOptions are the option fields nothing outside tests sets, each
// kept for the reason given. Any other such field goes.
var unsetOptions = map[string]string{
	"core.Options.CheckContract": "the test suite's PUNCH-contract and reducer-invariant assertions",
	"core.DistOptions.SyncEvery": "the gossip period TestDistributedSyncLatency varies",
	"core.DistOptions.SyncCost":  "the gossip latency TestDistributedSyncLatency charges",
	"harness.Options.TickBudget": "Table 3 calibrates it per run",
}

// optionSet is one place a field of an option struct is given a value:
// the directory of the file, and for a same-named pass-through (X: o.X)
// in a package that declares option structs, the struct o may be.
type optionSet struct {
	dir     string
	passDir string
}

// TestNoDeadOptions is a structural lint over the option surface. A field
// of bolt.Options, bolt.DistOptions or harness.Options must be set (a
// composite-literal key or an assignment) by non-test code in cmd/,
// examples/ or bench/. A field of core.Options or core.DistOptions must be
// set outside internal/core, where a same-named pass-through counts only
// if its source field passes the first rule. Anything else is listed in
// unsetOptions. Like TestNoDeadExports it goes by name, so an assignment
// x.F = v counts for every option field named F.
func TestNoDeadOptions(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string][]string{}   // "dir.Type" -> exported field names
	sets := map[string][]optionSet{}  // "dir.Type.Field" -> its setters
	assigned := map[string][]string{} // field name -> dirs assigning x.Name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		collectOptionFields(f, dir, fields)
		// imports maps a file's name for an option package to its directory.
		imports := map[string]string{}
		for _, s := range f.Imports {
			p := strings.Trim(s.Path.Value, `"`)
			if p != "repro" && !strings.HasPrefix(p, "repro/internal/") {
				continue
			}
			d, name := ".", "bolt"
			if p != "repro" {
				d = strings.TrimPrefix(p, "repro/")
				name = d[strings.LastIndex(d, "/")+1:]
			}
			if s.Name != nil {
				name = s.Name.Name
			}
			imports[name] = d
		}
		structOf := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return dir + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		var lit func(typ string, cl *ast.CompositeLit)
		lit = func(typ string, cl *ast.CompositeLit) {
			for _, el := range cl.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				s := optionSet{dir: dir}
				if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == key.Name {
					s.passDir = dir
				}
				sets[typ+"."+key.Name] = append(sets[typ+"."+key.Name], s)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				elem := ""
				switch typ := n.Type.(type) {
				case *ast.ArrayType:
					elem = structOf(typ.Elt)
				case *ast.MapType:
					elem = structOf(typ.Value)
				case nil:
				default:
					lit(structOf(typ), n)
				}
				// Elements of a slice or map of option structs elide their type.
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil && elem != "" {
						lit(elem, cl)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], dir)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	under := func(dir string, scope ...string) bool {
		for _, s := range scope {
			if dir == s || strings.HasPrefix(dir, s+"/") {
				return true
			}
		}
		return false
	}
	frontSet := func(typ, field string) bool {
		for _, s := range sets[typ+"."+field] {
			if under(s.dir, "cmd", "examples", "bench") {
				return true
			}
		}
		for _, d := range assigned[field] {
			if under(d, "cmd", "examples", "bench") {
				return true
			}
		}
		return false
	}
	isSet := func(typ, field string) bool {
		if !strings.HasPrefix(typ, "internal/core.") {
			return frontSet(typ, field)
		}
		for _, s := range sets[typ+"."+field] {
			if under(s.dir, "internal/core") {
				continue
			}
			// A pass-through from its package's own option struct counts
			// only if that struct's field is set where the first rule looks.
			pass, sourceSet := false, false
			for _, o := range optionStructs {
				src := o.dir + "." + o.typ
				if o.dir == s.passDir && o.dir != "internal/core" && slices.Contains(fields[src], field) {
					pass = true
					sourceSet = sourceSet || frontSet(src, field)
				}
			}
			if !pass || sourceSet {
				return true
			}
		}
		for _, d := range assigned[field] {
			if !under(d, "internal/core") {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	for _, o := range optionStructs {
		typ := o.dir + "." + o.typ
		if len(fields[typ]) < 5 {
			t.Fatalf("found %d fields of %s: the lint is looking at the wrong files", len(fields[typ]), typ)
		}
		for _, field := range fields[typ] {
			name := o.pkg + "." + o.typ + "." + field
			declared[name] = true
			_, allowed := unsetOptions[name]
			switch set := isSet(typ, field); {
			case set && allowed:
				t.Errorf("%s has a setter now: drop it from unsetOptions", name)
			case !set && !allowed:
				t.Errorf("%s is set by no caller outside tests: delete it, or list it in unsetOptions with a reason", name)
			}
		}
	}
	for name := range unsetOptions {
		if !declared[name] {
			t.Errorf("unsetOptions lists %s, which no longer exists", name)
		}
	}
}

// collectOptionFields records the exported fields of the option structs
// f declares.
func collectOptionFields(f *ast.File, dir string, fields map[string][]string) {
	for _, o := range optionStructs {
		if o.dir != dir {
			continue
		}
		obj := f.Scope.Lookup(o.typ)
		if obj == nil {
			continue
		}
		ts, ok := obj.Decl.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if n.IsExported() {
					fields[dir+"."+o.typ] = append(fields[dir+"."+o.typ], n.Name)
				}
			}
		}
	}
}
