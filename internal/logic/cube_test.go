package logic

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
)

// kernelSrc decodes a byte stream into bounded decisions; exhausted input
// yields zeros, so every prefix decodes to a well-formed case.
type kernelSrc struct {
	data []byte
	i    int
}

func (s *kernelSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

var kernelVars = []lang.Var{"a", "b", "c", "d", "e"}

// lin is a term over the first nv variables with coefficients in [-3, 3],
// so that non-unit pairs (inexact and dark-shadow eliminations) and terms
// with a common divisor (normalization) both occur.
func (s *kernelSrc) lin(nv int) Lin {
	l := LinConst(int64(s.next()%13) - 6)
	for _, v := range kernelVars[:nv] {
		if c := int64(s.next()%7) - 3; c != 0 {
			l = l.Add(LinVar(v).Scale(c))
		}
	}
	return l
}

// formula is an NNF formula of bounded depth: atoms built by the
// constructors and as literals (unnormalized, equalities, constants), and
// junctions built by Conj/Disj, which flatten and fold, and as literal
// And/Or nodes, which nest as written.
func (s *kernelSrc) formula(nv, depth int) Formula {
	if depth == 0 || s.next()%4 == 0 {
		l := s.lin(nv)
		switch s.next() % 6 {
		case 0:
			return EQ(l)
		case 1:
			return Atom{L: l}
		case 2:
			return Atom{L: l, Eq: true}
		case 3:
			return Bool(s.next()%2 == 0)
		default:
			return LE(l)
		}
	}
	fs := make([]Formula, 1+s.next()%4)
	for i := range fs {
		fs[i] = s.formula(nv, depth-1)
	}
	switch s.next() % 4 {
	case 0:
		return Conj(fs...)
	case 1:
		return Disj(fs...)
	case 2:
		return And{Fs: fs}
	default:
		return Or{Fs: fs}
	}
}

// wideCube bounds a from below n times and from above m times, every atom
// distinct, so that eliminating a pairs n·m bounds: on either side of
// maxCombinations as n and m vary.
func wideCube(n, m int) Cube {
	var c Cube
	for i := 0; i < n; i++ {
		c = append(c, Atom{L: LinVar("a").Scale(-int64(1 + i%3)).Add(LinVar("b").Scale(int64(i%5 - 2))).AddConst(int64(i))})
	}
	for j := 0; j < m; j++ {
		c = append(c, Atom{L: LinVar("a").Scale(int64(1 + j%2)).Add(LinVar("c").Scale(int64(j % 3))).AddConst(-int64(j))})
	}
	return c
}

func sameCube(a, b Cube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Eq != b[i].Eq || !a[i].L.Equal(b[i].L) {
			return false
		}
	}
	return true
}

// keepCube copies a yielded cube out of the kernel's scratch memory.
func keepCube(c Cube) Cube {
	out := make(Cube, len(c))
	for i, a := range c {
		out[i] = Atom{L: a.L.clone(), Eq: a.Eq}
	}
	return out
}

// refExists is Exists over the reference kernel.
func refExists(f Formula, elim []lang.Var, mode Shadow) (Formula, bool) {
	set := map[lang.Var]bool{}
	for _, v := range elim {
		set[v] = true
	}
	if !Mentions(f, set) {
		return f, true
	}
	cubes, ok := Cubes(f, MaxCubes)
	if !ok {
		return Bool(mode == Over), false
	}
	exact := true
	var out []Formula
	for _, c := range cubes {
		p, ex, sat := ProjectCube(c, set, mode)
		exact = exact && ex
		if sat {
			out = append(out, p.Formula())
		}
	}
	return Disj(out...), exact
}

// checkProject holds Scratch.Project to the reference ProjectCube on one
// cube, both shadows.
func checkProject(t *testing.T, c Cube, elim []lang.Var) {
	t.Helper()
	set := map[lang.Var]bool{}
	for _, v := range elim {
		set[v] = true
	}
	for _, mode := range []Shadow{Over, Under} {
		want, wantEx, wantSat := ProjectCube(c, set, mode)
		s := GetScratch()
		got, gotEx, gotSat := s.Project(c, elim, mode)
		if gotEx != wantEx || gotSat != wantSat || !sameCube(got, want) {
			t.Fatalf("project %v out of %v (shadow %d):\n  scratch   %v exact=%v sat=%v\n  reference %v exact=%v sat=%v",
				elim, c, mode, got, gotEx, gotSat, want, wantEx, wantSat)
		}
		s.Release()
	}
}

// checkKernel holds EachCube, Scratch.Project and Exists to the reference
// kernel on f: the same cubes in the same order, overflow reported
// exactly when the reference reports it, an early stop after any prefix,
// and equal projections of every cube and of f.
func checkKernel(t *testing.T, f Formula, max int, elim []lang.Var, stop int) {
	t.Helper()
	want, wantOK := Cubes(f, max)
	var got []Cube
	gotOK := EachCube(f, max, func(c Cube) bool {
		got = append(got, keepCube(c))
		return true
	})
	if gotOK != wantOK || !gotOK && len(got) > 0 {
		t.Fatalf("EachCube(%v, %d): ok=%v after %d cubes, reference ok=%v", f, max, gotOK, len(got), wantOK)
	}
	if len(got) != len(want) {
		t.Fatalf("EachCube(%v, %d): %d cubes, reference %d", f, max, len(got), len(want))
	}
	for i := range got {
		if !sameCube(got[i], want[i]) {
			t.Fatalf("EachCube(%v, %d): cube %d is %v, reference %v", f, max, i, got[i], want[i])
		}
	}
	if len(want) > 1 {
		k := 1 + stop%len(want)
		n := 0
		EachCube(f, max, func(c Cube) bool {
			if !sameCube(c, want[n]) {
				t.Fatalf("stopping after %d: cube %d is %v, reference %v", k, n, c, want[n])
			}
			n++
			return n < k
		})
		if n != k {
			t.Fatalf("EachCube went on for %d cubes after yield asked to stop at %d", n, k)
		}
	}
	for _, c := range want {
		checkProject(t, c, elim)
	}
	for _, mode := range []Shadow{Over, Under} {
		g, gEx := Exists(f, elim, mode)
		r, rEx := refExists(f, elim, mode)
		if Key(g) != Key(r) || gEx != rEx {
			t.Fatalf("Exists %v out of %v (shadow %d):\n  kernel    %v exact=%v\n  reference %v exact=%v", elim, f, mode, g, gEx, r, rEx)
		}
	}
}

// kernelCase decodes one case from bytes: 3–5 variables, a formula whose
// DNF falls on either side of max, a sorted set of variables to
// eliminate, and now and then a wide cube for the blow-up guard.
func kernelCase(t *testing.T, data []byte) {
	src := &kernelSrc{data: data}
	nv := 3 + int(src.next()%3)
	max := int(src.next() % 40)
	f := src.formula(nv, 3)
	var elim []lang.Var
	mask := src.next()
	for i, v := range kernelVars[:nv] {
		if mask&(1<<i) != 0 {
			elim = append(elim, v)
		}
	}
	checkKernel(t, f, max, elim, int(src.next()))
	if src.next()%8 == 0 {
		checkProject(t, wideCube(60+int(src.next()%10), 60+int(src.next()%10)), append([]lang.Var{"a"}, elim[min(len(elim), 1):]...))
	}
}

func FuzzCubeKernelAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{2, 39, 1, 2, 2, 1, 3, 3, 1, 3, 2, 1, 1, 0, 5, 6, 7, 1, 2, 3, 3, 3, 1, 2, 7, 0, 0})
	f.Add([]byte{0, 5, 3, 1, 3, 1, 2, 0, 1, 2, 3, 1, 3, 2, 1, 2, 3, 1, 0, 0, 0, 0, 255, 3, 0, 9, 9})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241, 240})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // depth is bounded; long inputs only slow the run
		}
		kernelCase(t, data)
	})
}

// TestCubeKernelAgainstReference runs the fuzzer's check on random cases
// and on the shapes whose rules are easiest to get wrong.
func TestCubeKernelAgainstReference(t *testing.T) {
	atoms := func(n int) []Formula {
		fs := make([]Formula, n)
		for i := range fs {
			fs[i] = LE(LinVar("a").AddConst(int64(i)))
		}
		return fs
	}
	x, y := LinVar("a"), LinVar("b")
	elim := []lang.Var{"a"}
	for name, c := range map[string]struct {
		f   Formula
		max int
	}{
		// A conjunct with no cubes does not stop the count: the
		// disjunction after it is still too many.
		"overflow after an empty conjunct":   {And{Fs: []Formula{False, Or{Fs: atoms(40)}}}, 32},
		"empty conjunct, then one that fits": {And{Fs: []Formula{False, Or{Fs: atoms(20)}}}, 32},
		"atoms only at max 0":                {And{Fs: atoms(3)}, 0},
		"empty conjunction at max 0":         {And{}, 0},
		"empty disjunction":                  {Or{}, 4},
		"true at max 0":                      {True, 0},
		"disjunction at its max":             {Or{Fs: atoms(32)}, 32},
		"disjunction past its max":           {Or{Fs: atoms(33)}, 32},
		"product past max":                   {And{Fs: []Formula{Or{Fs: atoms(6)}, Or{Fs: atoms(6)}}}, 32},
		"equality halves, repeats, constants": {And{Fs: []Formula{
			EQ(x.Scale(2).Sub(y.Scale(4)).AddConst(2)), LE(x), Atom{L: x}, True,
			Or{Fs: []Formula{Atom{L: LinConst(-1)}, Atom{L: x.Scale(3).AddConst(3)}, Atom{L: LinConst(1)}}},
		}}, 8},
		"contradiction by folding": {Conj(LE(x.AddConst(-1)), Atom{L: y.Sub(y).AddConst(1)}), 8},
	} {
		t.Run(name, func(t *testing.T) {
			for stop := 0; stop < 4; stop++ {
				checkKernel(t, c.f, c.max, elim, stop)
			}
		})
	}
	for _, n := range []int{63, 64, 65} { // 64·64 = maxCombinations
		checkProject(t, wideCube(n, 64), []lang.Var{"a", "b"})
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1500; i++ {
		data := make([]byte, 32+rng.Intn(160))
		rng.Read(data)
		kernelCase(t, data)
	}
}

// TestInternNeverRetainsCallerMemory pins the intern table's ownership
// rule: a term handed to LinID or to an atom constructor is copied, so
// its owner may overwrite it afterwards. The cube kernel relies on it to
// probe the table with terms in scratch memory.
func TestInternNeverRetainsCallerMemory(t *testing.T) {
	vars := []lang.Var{"own_p", "own_q"}
	coefs := []int64{2, -3}
	l := Lin{K: 7, Vars: vars, Coefs: coefs}
	want := Lin{K: 7, Vars: []lang.Var{"own_p", "own_q"}, Coefs: []int64{2, -3}}
	id := LinID(l)
	le, eq := LE(l), EQ(l)
	lePrint, eqPrint, leKey, eqKey := le.String(), eq.String(), Key(le), Key(eq)
	vars[0], vars[1], coefs[0], coefs[1] = "own_z", "own_y", 99, -99
	if got := LinID(want); got != id {
		t.Errorf("LinID of the original term is %d after the caller's buffer changed, was %d", got, id)
	}
	if own, _ := internLin(want); own.String() != want.String() || !own.Equal(want) {
		t.Errorf("the table's term prints %q after the caller's buffer changed, want %q", own, want)
	}
	for _, c := range []struct {
		name, print, key string
		built, rebuilt   Formula
	}{{"LE", lePrint, leKey, le, LE(want)}, {"EQ", eqPrint, eqKey, eq, EQ(want)}} {
		if c.built.String() != c.print || !c.built.(Atom).L.Equal(want) {
			t.Errorf("%s atom prints %q after the caller's buffer changed, was %q", c.name, c.built, c.print)
		}
		if Key(c.rebuilt) != c.key {
			t.Errorf("%s of the original term keys %q, the first build %q", c.name, Key(c.rebuilt), c.key)
		}
	}
}

// TestNestedEnumerationConcurrent runs EachCube inside EachCube's yield
// on several goroutines at once, as PartitionOn's yield does through
// Simplify and Sat while streaming workers share one solver: every
// enumeration owns its scratch, so an inner one never changes the cube
// an outer one yielded, and each goroutine sees the cubes a lone run sees.
func TestNestedEnumerationConcurrent(t *testing.T) {
	x, y, z := LinVar("a"), LinVar("b"), LinVar("c")
	outer := Conj(Disj(LE(x), LE(y.AddConst(-2)), EQ(z.Scale(2).AddConst(-4))), Disj(LE(x.Sub(y)), LE(z.Scale(-3).AddConst(1))))
	inner := Disj(Conj(LE(x.Add(y)), LE(z)), EQ(x.Sub(z)), LE(y.Scale(4).AddConst(6)))
	run := func() string {
		var b strings.Builder
		EachCube(outer, 32, func(c Cube) bool {
			before := c.Formula().String()
			EachCube(inner, 32, func(d Cube) bool {
				b.WriteString(d.Formula().String() + ";")
				s := GetScratch()
				p, _, _ := s.Project(d, s.Vars(d), Over)
				b.WriteString(p.Formula().String() + ";")
				s.Release()
				return true
			})
			if after := c.Formula().String(); after != before {
				t.Errorf("outer cube %s became %s during the inner enumeration", before, after)
			}
			b.WriteString(before + "\n")
			return true
		})
		return b.String()
	}
	want := run()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent nested enumeration:\n%s\nlone run:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCubeKernelAllocPin holds the kernel to its purpose: with the pool
// warm, enumerating an interned DNF, a real-shadow check of a cube, the
// refutation by which a cube entails an atom, and enumerating a DNF met
// by a cube region under a store allocate nothing. What a caller keeps it
// copies out itself.
func TestCubeKernelAllocPin(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	x, y, z := LinVar("a"), LinVar("b"), LinVar("c")
	f := Conj(Disj(LE(x.AddConst(-1)), LE(y.Sub(x))), Disj(LE(z.AddConst(2)), LE(x.Add(z).AddConst(-5)), EQ(y.Sub(z).AddConst(1))))
	cube := Cube{{L: x.AddConst(-4)}, {L: x.Scale(-1).AddConst(1)}, {L: y.Sub(x).Scale(2)}, {L: z.Sub(y).AddConst(3)}, {L: z.Scale(-3).Add(x).AddConst(-2)}}
	n := 0
	enumerate := func() {
		EachCube(f, 32, func(c Cube) bool {
			n += len(c)
			return true
		})
	}
	check := func() {
		s := GetScratch()
		if _, _, sat := s.Project(cube, s.Vars(cube), Over); !sat {
			t.Fatal("the pinned cube is rationally satisfiable")
		}
		s.Release()
	}
	refute := func() {
		s := GetScratch()
		if !s.Entails(cube[:3], Atom{L: y.AddConst(-8)}) {
			t.Fatal("a ≤ 4, 1 ≤ a, 2b ≤ 2a do not entail b ≤ 8")
		}
		s.Release()
	}
	region, store := Conj(LE(x.AddConst(-3)), EQ(z.Sub(y))), map[lang.Var]Lin{"a": y.AddConst(1), "c": x.Add(z)}
	meet := func() {
		s := GetScratch()
		if !s.EachMeetCube(f, region, store, 32, 100, func(c Cube) bool {
			n += len(c)
			return true
		}) {
			t.Fatal("a cube region under a store was left undecided")
		}
		s.Release()
	}
	for name, op := range map[string]func(){"EachCube over a 2×3 DNF": enumerate, "a real-shadow check": check, "a refutation of an atom's negation": refute, "a 2×3 DNF met by a cube under a store": meet} {
		op() // fills the pool
		if a := testing.AllocsPerRun(100, op); a != 0 {
			t.Errorf("%s allocates %.1f times with the pool warm, want 0", name, a)
		}
	}
	if n == 0 {
		t.Fatal("the 2×3 DNF yielded no atoms")
	}
}

// raceEnabled reports a test binary built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestEachCubePastMaxYieldsNothing pins the contract PartitionOn relies
// on: EachCube counts before it yields, so a formula with more than max
// cubes returns false without a single call to yield, even when the
// cubes it would have yielded first exist; at exactly max cubes it
// yields them all.
func TestEachCubePastMaxYieldsNothing(t *testing.T) {
	a, b, c, d, e := LE(LinVar("a")), LE(LinVar("b")), LE(LinVar("c")), LE(LinVar("d")), LE(LinVar("e"))
	for _, tc := range []struct {
		f     Formula
		cubes int
	}{
		{Disj(a, b, c, d, e), 5},
		{Conj(Disj(a, b, c), Disj(d, e)), 6},
		{Disj(Conj(Disj(a, b), Disj(c, d)), e), 5},
		{Conj(a, Disj(b, c, Conj(d, e)), Disj(EQ(LinVar("f")), c)), 6},
	} {
		calls := 0
		if EachCube(tc.f, tc.cubes-1, func(Cube) bool { calls++; return true }) || calls != 0 {
			t.Errorf("EachCube(%v, %d) past its bound called yield %d times, or returned true", tc.f, tc.cubes-1, calls)
		}
		if !EachCube(tc.f, tc.cubes, func(Cube) bool { calls++; return true }) || calls != tc.cubes {
			t.Errorf("EachCube(%v, %d) yielded %d cubes, want %d", tc.f, tc.cubes, calls, tc.cubes)
		}
	}
}
