package logic

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
)

func internVar(name string) Lin { return LinVar(lang.Var(name)) }

// buildNested constructs a moderately deep formula parameterized by seed
// so concurrent builders overlap on shared subterms.
func buildNested(seed int64) Formula {
	x, y := internVar("x"), internVar("y")
	var fs []Formula
	for i := int64(0); i < 4; i++ {
		fs = append(fs, Disj(
			LEq(x, LinConst(seed+i)),
			Conj(LEq(LinConst(-seed-i), y), LEq(y.Add(x.Scale(2)), LinConst(i))),
		))
	}
	return Conj(fs...)
}

// Structural equality must collapse to key equality: the same formula
// built twice — separate allocations, same shape — interns to the same
// id, and the second build is served from the table (hits advance).
func TestInternSameStructureSameKey(t *testing.T) {
	h0, _ := InternStats()
	a := buildNested(7)
	b := buildNested(7)
	if Key(a) != Key(b) {
		t.Fatalf("same structure, different keys: %q vs %q", Key(a), Key(b))
	}
	if id := KeyID(a); id == 0 {
		t.Fatal("nested formula fell off the intern table")
	}
	if KeyID(a) != KeyID(b) {
		t.Fatalf("same structure, different ids: %d vs %d", KeyID(a), KeyID(b))
	}
	if h1, _ := InternStats(); h1 <= h0 {
		t.Fatal("second build did not hit the intern table")
	}
}

// Distinct formulas must get distinct keys — including Bool constants
// versus composite nodes (reserved ids) and atoms differing only in the
// Eq flag or a constant.
func TestInternDistinctFormulasDistinctKeys(t *testing.T) {
	x := internVar("x")
	fs := []Formula{
		Bool(true), Bool(false),
		LE(x.Sub(LinConst(3))), EQ(x.Sub(LinConst(3))),
		LE(x.Sub(LinConst(4))),
		Conj(LE(x.Sub(LinConst(3))), LE(LinConst(1).Sub(x))),
		Disj(LE(x.Sub(LinConst(3))), LE(LinConst(1).Sub(x))),
		buildNested(7), buildNested(8),
	}
	seen := map[string]Formula{}
	for _, f := range fs {
		k := Key(f)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision %q between %v and %v", k, prev, f)
		}
		seen[k] = f
	}
}

// Renaming an atom's variable must re-intern: the renamed atom's key has
// to match a freshly built atom over the new variable, never the
// original's.
func TestInternRenameReinterns(t *testing.T) {
	a := LE(internVar("x").Sub(LinConst(5)))
	r := Rename(a, map[lang.Var]lang.Var{"x": "y"})
	want := LE(internVar("y").Sub(LinConst(5)))
	if Key(r) != Key(want) {
		t.Fatalf("renamed key %q, want %q", Key(r), Key(want))
	}
	if Key(r) == Key(a) {
		t.Fatal("renamed atom kept the original key")
	}
}

// Concurrent construction of overlapping formulas must agree on ids —
// this is the -race coverage for the sharded intern table under
// concurrent PUNCH instances.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	keys := make([][]string, workers)
	kids := make([][]*Formula, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := buildNested(int64(1000 + i%10))
				keys[w] = append(keys[w], Key(f))
				kids[w] = append(kids[w], &f.(And).Fs[0])
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range keys[w] {
			if keys[w][i] != keys[0][i] {
				t.Fatalf("worker %d key[%d] = %q, worker 0 = %q", w, i, keys[w][i], keys[0][i])
			}
			if kids[w][i] != kids[0][i] {
				t.Fatalf("worker %d and worker 0 hold different nodes for formula %d", w, i)
			}
		}
	}
}

// The table owns the node: building a structure that exists returns the
// node that is there, children array and all.
func TestInternSharesOneNode(t *testing.T) {
	for name, build := range map[string]func(...Formula) Formula{"Conj": Conj, "Disj": Disj} {
		x, y := internVar("x"), internVar("y")
		mk := func() Formula { return build(LEq(x, LinConst(41)), LEq(y, x), LEq(LinConst(7), y)) }
		a, b := mk(), mk()
		if KeyID(a) == 0 || KeyID(a) != KeyID(b) {
			t.Fatalf("%s: ids %d and %d", name, KeyID(a), KeyID(b))
		}
		if fa, fb := childrenOf(a), childrenOf(b); len(fa) != 3 || &fa[0] != &fb[0] {
			t.Fatalf("%s: the same structure built twice does not share its children array", name)
		}
		if fs := childrenOf(a); cap(fs) != len(fs) {
			t.Fatalf("%s: interned children have spare capacity %d > %d: an append could write into them", name, cap(fs), len(fs))
		}
	}
	l := internVar("x").Sub(LinConst(41))
	a, b := LE(l).(Atom), LE(l).(Atom)
	if a.id == 0 || a.id != b.id || &a.L.Vars[0] != &b.L.Vars[0] {
		t.Fatal("LE of one term built twice is not one atom")
	}
}

func childrenOf(f Formula) []Formula {
	_, fs := kidsOf(f)
	return fs
}

// A node written as a literal carries no id; KeyID interns it bottom-up
// and reaches the id the constructors give the same structure, and what
// it stores has canonical children only.
func TestInternLiteralReachesConstructorID(t *testing.T) {
	lx, ly := internVar("lit_x").Sub(LinConst(3)), internVar("lit_y").AddConst(9)
	lit := And{Fs: []Formula{
		Atom{L: lx},
		Or{Fs: []Formula{Atom{L: ly}, Atom{L: lx, Eq: true}}},
	}}
	built := Conj(LE(lx), Disj(LE(ly), EQ(lx)))
	if KeyID(lit) == 0 || KeyID(lit) != KeyID(built) {
		t.Fatalf("literal interns to %d, constructors to %d", KeyID(lit), KeyID(built))
	}
	// One-child and nested literals keep their structure: an id
	// identifies what was written, not what Conj would have made of it.
	if one := (And{Fs: []Formula{Atom{L: lx}}}); KeyID(one) == KeyID(LE(lx)) || KeyID(one) != KeyID(And{Fs: []Formula{LE(lx)}}) {
		t.Fatal("a one-child literal And must have an id of its own, the same on every build")
	}
	checkTableInvariants(t)
}

// checkTableInvariants walks the node table: every entry carries a live
// id, sits in the shard and on the probe path its hash says, and holds
// only children that carry live ids themselves.
func checkTableInvariants(t *testing.T) {
	t.Helper()
	for i := range internTab {
		sh := &internTab[i]
		sh.mu.RLock()
		used := 0
		for _, f := range sh.nodes {
			if f == nil {
				continue
			}
			used++
			if !live(idOf(f)) {
				t.Errorf("shard %d holds a node without a live id: %v", i, f)
			}
			if a, ok := f.(Atom); ok && !live(a.termID()) {
				t.Errorf("shard %d holds an atom without a live term id: %v", i, f)
			}
			for _, g := range childrenOf(f) {
				if !live(idOf(g)) {
					t.Errorf("shard %d: node %v holds the child %v without a live id", i, f, g)
				}
			}
			h := hashOf(f)
			if int(h>>nodeShardShift) != i {
				t.Errorf("node %v sits in shard %d, its hash says %d", f, i, h>>nodeShardShift)
			}
		}
		if used != sh.used {
			t.Errorf("shard %d counts %d nodes, holds %d", i, sh.used, used)
		}
		sh.mu.RUnlock()
	}
}

// 200 000 fresh nodes push every shard through several doublings; each
// node must stay findable afterwards, under the id and at the address it
// was given, and the entries must spread over the slots: a shard whose
// slot index reused the bits that chose the shard would crowd its entries
// onto 1/64 of its slots and probe an order of magnitude further.
func TestInternGrowthKeepsNodesAndSpreadsThem(t *testing.T) {
	const atoms = 640 // 640·639/2 = 204 480 pairs
	v := internVar("growth")
	as := make([]Formula, atoms)
	for i := range as {
		as[i] = LEq(v, LinConst(int64(i)))
	}
	type made struct {
		id   ID
		kids *Formula
	}
	var nodes []made
	for i := range as {
		for j := i + 1; j < atoms; j++ {
			f := Disj(as[i], as[j]).(Or)
			nodes = append(nodes, made{f.id, &f.Fs[0]})
		}
	}
	n := 0
	for i := range as {
		for j := i + 1; j < atoms; j++ {
			f := Disj(as[i], as[j]).(Or)
			if f.id == 0 || f.id != nodes[n].id || &f.Fs[0] != nodes[n].kids {
				t.Fatalf("pair (%d,%d): id %d node %p, first built as id %d node %p", i, j, f.id, &f.Fs[0], nodes[n].id, nodes[n].kids)
			}
			n++
		}
	}
	checkTableInvariants(t)
	for i := range internTab {
		sh := &internTab[i]
		sh.mu.RLock()
		slots, mask := len(sh.nodes), uint64(len(sh.nodes)-1)
		total, longest := 0, 0
		for at, f := range sh.nodes {
			if f == nil {
				continue
			}
			d := int((uint64(at) - hashOf(f)) & mask) // slots past the home slot
			total += d
			if d > longest {
				longest = d
			}
		}
		mean := float64(total) / float64(sh.used)
		sh.mu.RUnlock()
		if slots < 8*minNodeSlots {
			t.Errorf("shard %d has %d slots after 200k inserts: it did not grow", i, slots)
		}
		// Linear probing at a load of at most 47/64 leaves an entry 1.4
		// slots from home on average and the worst a few dozen.
		if i == 0 || i == internShards-1 {
			t.Logf("shard %d: %d of %d slots used, %.2f slots from home on average, %d at worst", i, sh.used, slots, mean, longest)
		}
		if mean > 3 || longest > 160 {
			t.Errorf("shard %d: entries sit %.1f slots from home on average, %d at worst (%d of %d slots used)", i, mean, longest, sh.used, slots)
		}
	}
}

// The constructors' hit path is free of allocation: two to four existing
// children whose node exists, an atom over an existing term, and the
// term arithmetic on the way to one — comparison, negation, substitution
// — which builds its term on the stack. So is keying a formula of a
// dropped generation, once its nodes are in the new table: a walk of hits.
func TestConstructorHitPathAllocFree(t *testing.T) {
	old := dropFixture()
	dropTable()
	x, y := internVar("x"), internVar("y")
	region := Conj(LEq(x, LinConst(4)), LEq(LinConst(0), x))
	wp, pre := LEq(y.Add(x), LinConst(9)), LEq(LinConst(1), y)
	term := y.Add(x).Sub(LinConst(9))
	yx, six := y.Add(x), term.Scale(6)
	eq, gcd := EQ(term), LE(six)
	sub := map[lang.Var]Lin{"x": y.Scale(2).AddConst(1), "y": x}
	cube := Cube{{L: term}, {L: x.AddConst(-4)}, {L: y.Scale(-1)}}
	for name, build := range map[string]func(){
		"Conj of 2":                               func() { conjSink = Conj(wp, pre) },
		"Conj of 3":                               func() { conjSink = Conj(pre, wp, LEq(x, LinConst(4))) },
		"Conj of 4, one And":                      func() { conjSink = Conj(region, wp, pre, wp) },
		"Disj of 3":                               func() { conjSink = Disj(pre, wp, region) },
		"LE of a known term":                      func() { conjSink = LE(term) },
		"EQ of a known term":                      func() { conjSink = EQ(term) },
		"KeyID of a built id":                     func() { _ = KeyID(region) },
		"LEq of known terms":                      func() { conjSink = LEq(yx, LinConst(9)) },
		"Lt of known terms":                       func() { conjSink = Lt(x, y) },
		"Eq of known terms":                       func() { conjSink = Eq(x, y) },
		"LE dividing by 6":                        func() { conjSink = LE(six) },
		"Not of an atom":                          func() { conjSink = Not(wp) },
		"Not of an equality":                      func() { conjSink = Not(eq) },
		"Subst into an atom":                      func() { conjSink = Subst(gcd, "x", y.AddConst(2)) },
		"SubstMap of an atom":                     func() { conjSink = SubstMap(wp, sub) },
		"ID of a known cube":                      func() { _ = cube.ID() },
		"KeyID of a dropped generation's formula": func() { _ = KeyID(old) },
	} {
		build() // the first call may insert
		if a := testing.AllocsPerRun(100, build); a != 0 {
			t.Errorf("%s allocates %.0f times on the hit path, want 0", name, a)
		}
	}
}

// Fs of an interned node is shared by every holder of that structure, so
// no code may assign to an element of some node's Fs or append onto it.
// An audit found no such site; this keeps it so.
func TestNoWriteThroughFs(t *testing.T) {
	write := regexp.MustCompile(`\.Fs\[[^\]]*\]\s*(=[^=]|\+\+|--|[-+|&^*/%]=)|append\(\s*[\w.()\[\]]*\.Fs\s*,`)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if write.MatchString(line) {
				t.Errorf("%s:%d writes through a node's Fs: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHashConsKey: key construction on an interned formula (an id
// format) versus the structural string render it replaced.
func BenchmarkHashConsKey(b *testing.B) {
	f := buildNested(7)
	b.Run("Key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Key(f)
		}
	})
	b.Run("String", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.String()
		}
	})
}

// BenchmarkInternConstruct: formula construction cost with the intern
// table on the path (every LE/Conj/Disj pays a table probe).
func BenchmarkInternConstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = buildNested(int64(i % 16))
	}
}

// Duplicate children are dropped, first occurrence kept, on both sides of
// the width at which the builder's id set switches from a scan to a map.
func TestConjDedupAcrossSetSizes(t *testing.T) {
	x := internVar("x")
	for _, n := range []int{3, idSetLinear, idSetLinear + 1, 3 * idSetLinear} {
		var fs, uniq []Formula
		for i := 0; i < n; i++ {
			a := LEq(x, LinConst(int64(i)))
			uniq = append(uniq, a)
			fs = append(fs, a, LEq(x, LinConst(int64(i/2))))
		}
		for name, got := range map[string]Formula{"Conj": Conj(fs...), "Disj": Disj(fs...)} {
			var kids []Formula
			switch g := got.(type) {
			case And:
				kids = g.Fs
			case Or:
				kids = g.Fs
			}
			if len(kids) != n {
				t.Fatalf("%s of %d distinct atoms (each twice) has %d children", name, n, len(kids))
			}
			for i, k := range kids {
				if Key(k) != Key(uniq[i]) {
					t.Fatalf("%s child %d = %v, want %v", name, i, k, uniq[i])
				}
			}
		}
	}
}

var conjSink Formula

// BenchmarkConjSmall: the conjunctions PUNCH builds all day — two to four
// children, one of them often a conjunction itself, and nearly always a
// structure that has been built before. That path allocates nothing; a
// child slice, an id slice or a boxed node coming back would show here.
func BenchmarkConjSmall(b *testing.B) {
	x, y := internVar("x"), internVar("y")
	region := Conj(LEq(x, LinConst(4)), LEq(LinConst(0), x))
	wp := LEq(y.Add(x), LinConst(9))
	pre := LEq(LinConst(1), y)
	build := func() { conjSink = Conj(region, wp, pre, wp) }
	build()
	if a := testing.AllocsPerRun(100, build); a != 0 {
		b.Fatalf("Conj of four small children allocates %.0f times on the hit path, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}
