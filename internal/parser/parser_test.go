package parser

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
)

const sample = `
program demo;
globals g, h;

proc main {
  locals x, y;
  x = 3;
  havoc y;
  assume(y > 0);
  if (x + y <= 10) {
    foo();
  } else {
    y = y - 1;
  }
  while (y > 0) {
    y = y - 1;
  }
  assert(y >= 0);
}

proc foo {
  g = g + 1;
}
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "demo" {
		t.Errorf("Name = %q, want demo", prog.Name)
	}
	if prog.Main != "main" {
		t.Errorf("Main = %q", prog.Main)
	}
	if len(prog.Procs) != 2 {
		t.Fatalf("got %d procs", len(prog.Procs))
	}
	// __err must be added because of the assert.
	if !slices.Contains(prog.Globals, ErrVar) {
		t.Error("__err not added to globals")
	}
	if !slices.Contains(prog.Globals, "g") || !slices.Contains(prog.Globals, "h") {
		t.Error("declared globals missing")
	}
	cg := prog.CallGraph()
	if len(cg["main"]) != 1 || cg["main"][0] != "foo" {
		t.Errorf("call graph main -> %v", cg["main"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"proc main { x = ; }", "expected integer expression"},
		{"proc main { if x > 0 { skip; } }", `expected "("`},
		{"proc main { x = y * z; }", "nonlinear"},
		{"proc main { foo(); }", "calls undefined procedure"},
		{"globals g; proc main { locals g; skip; }", "shadows"},
		{"proc main { assume(x >); }", "expected integer expression"},
		{"", "no procedures"},
		{"proc main { x = 99999999999999999999; }", "out of range"},
		{"proc main { x = ٣; }", "unexpected character '٣'"},
		{"proc main { x = 12٣; }", "unexpected character '٣'"},
		{"proc main { locals café; café = 1; }", "1:23: unexpected character 'é'"},
		{"proc main {\u00a0skip; }", "1:12: unexpected character '\\u00a0'"},
		{"proc main { /* unterminated }", "unterminated block comment"},
		{"proc f(a) { skip; } proc f { skip; } proc main { skip; }", `duplicate procedure "f"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.want)
		}
	}
}

// TestASCIIOutsideComments: a comment may hold any text, the program
// outside it only ASCII; a stray rune is a *Error at its line and column
// (counted in runes) that names it.
func TestASCIIOutsideComments(t *testing.T) {
	if _, err := Parse("// café\u00a0\nproc main { /* ünïcode */ skip; }"); err != nil {
		t.Fatalf("non-ASCII comments rejected: %v", err)
	}
	_, err := Parse("/* é */ proc main {\n  x\u00a0= 1; }")
	var pe *Error
	if !errors.As(err, &pe) || pe.Line != 2 || pe.Col != 4 || !strings.Contains(pe.Msg, `'\u00a0'`) {
		t.Fatalf("error = %#v, want a *Error at 2:4 naming U+00A0", err)
	}
}

func TestMainFallback(t *testing.T) {
	prog, err := Parse("proc top { skip; }")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Main != "top" {
		t.Errorf("Main = %q, want top", prog.Main)
	}
	if prog := MustParse("proc top { skip; } proc main { skip; }"); prog.Main != "main" {
		t.Errorf("Main = %q, want main wherever it stands", prog.Main)
	}
}

func TestAssertCompilation(t *testing.T) {
	// A violated assertion must reach exit with __err == 1.
	prog := MustParse(`proc main { locals x; x = 1; assert(x <= 0); x = 5; }`)
	res := interp.Run(prog, interp.Options{})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Final[ErrVar] != 1 {
		t.Fatalf("__err = %d, want 1", res.Final[ErrVar])
	}
	// A satisfied assertion leaves __err at 0.
	prog2 := MustParse(`proc main { locals x; x = 1; assert(x >= 0); }`)
	res2 := interp.Run(prog2, interp.Options{})
	if !res2.Completed || res2.Final[ErrVar] != 0 {
		t.Fatalf("got completed=%v __err=%d", res2.Completed, res2.Final[ErrVar])
	}
}

func TestCalleeErrorPropagates(t *testing.T) {
	prog := MustParse(`
proc main {
  locals x;
  bad();
  x = 7;
}
proc bad {
  abort;
}
`)
	res := interp.Run(prog, interp.Options{})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Final[ErrVar] != 1 {
		t.Fatalf("__err = %d, want 1", res.Final[ErrVar])
	}
	// With error checks the assignment after the call must be skipped:
	// main's local x is scoped away at exit, so check via a global.
	prog2 := MustParse(`
globals g;
proc main {
  bad();
  g = 7;
}
proc bad {
  abort;
}
`)
	res2 := interp.Run(prog2, interp.Options{})
	if res2.Final["g"] == 7 {
		t.Error("error check after call did not short-circuit")
	}
}

func TestWhileLoop(t *testing.T) {
	prog := MustParse(`
globals sum;
proc main {
  locals i;
  i = 5;
  sum = 0;
  while (i > 0) {
    sum = sum + i;
    i = i - 1;
  }
}
`)
	res := interp.Run(prog, interp.Options{})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Final["sum"] != 15 {
		t.Fatalf("sum = %d, want 15", res.Final["sum"])
	}
}

func TestHavocDirected(t *testing.T) {
	prog := MustParse(`
globals out;
proc main {
  locals x;
  havoc x;
  out = 2*x + 1;
}
`)
	res := interp.Run(prog, interp.Options{HavocValues: []int64{21}})
	if res.Final["out"] != 43 {
		t.Fatalf("out = %d, want 43", res.Final["out"])
	}
}

func TestStuckOnFalseAssume(t *testing.T) {
	prog := MustParse(`proc main { assume(false); }`)
	res := interp.Run(prog, interp.Options{})
	if res.Completed || !res.Stuck {
		t.Fatalf("got %+v, want stuck", res)
	}
}

func TestNestedControlFlow(t *testing.T) {
	prog := MustParse(`
globals r;
proc main {
  locals a, b;
  havoc a;
  havoc b;
  if (a > 0) {
    if (b > 0) { r = 1; } else { r = 2; }
  } else {
    while (b > 0) { b = b - 1; }
    r = 3;
  }
}
`)
	cases := []struct {
		a, b, want int64
	}{
		{1, 1, 1},
		{1, -1, 2},
		{-1, 3, 3},
	}
	for _, c := range cases {
		res := interp.Run(prog, interp.Options{HavocValues: []int64{c.a, c.b}})
		if !res.Completed || res.Final["r"] != c.want {
			t.Errorf("a=%d b=%d: r=%d completed=%v, want r=%d", c.a, c.b, res.Final["r"], res.Completed, c.want)
		}
	}
}

func TestBooleanOperatorPrecedence(t *testing.T) {
	prog := MustParse(`
globals r;
proc main {
  locals a, b, c;
  havoc a; havoc b; havoc c;
  r = 0;
  if (a > 0 && b > 0 || c > 0) { r = 1; }
}
`)
	cases := []struct {
		a, b, c, want int64
	}{
		{1, 1, -1, 1},
		{1, -1, -1, 0},
		{-1, -1, 1, 1},
	}
	for _, cse := range cases {
		res := interp.Run(prog, interp.Options{HavocValues: []int64{cse.a, cse.b, cse.c}})
		if res.Final["r"] != cse.want {
			t.Errorf("a=%d b=%d c=%d: r=%d, want %d", cse.a, cse.b, cse.c, res.Final["r"], cse.want)
		}
	}
}

func TestParenthesizedBool(t *testing.T) {
	prog := MustParse(`
globals r;
proc main {
  locals a, b;
  havoc a; havoc b;
  r = 0;
  if ((a > 0 || b > 0) && !(a == b)) { r = 1; }
}
`)
	cases := []struct {
		a, b, want int64
	}{
		{1, 0, 1},
		{1, 1, 0},
		{0, 0, 0},
		{-1, 2, 1},
	}
	for _, c := range cases {
		res := interp.Run(prog, interp.Options{HavocValues: []int64{c.a, c.b}})
		if res.Final["r"] != c.want {
			t.Errorf("a=%d b=%d: r=%d, want %d", c.a, c.b, res.Final["r"], c.want)
		}
	}
}

func TestLocalScoping(t *testing.T) {
	// Callee locals must not leak into nor clobber caller locals of the
	// same name.
	prog := MustParse(`
globals r;
proc main {
  locals x;
  x = 10;
  sub();
  r = x;
}
proc sub {
  locals x;
  x = 99;
}
`)
	res := interp.Run(prog, interp.Options{})
	if res.Final["r"] != 10 {
		t.Fatalf("r = %d, want 10 (callee local leaked)", res.Final["r"])
	}
}

func TestRandomizedRunsTerminate(t *testing.T) {
	prog := MustParse(sample)
	for seed := int64(0); seed < 20; seed++ {
		res := interp.Run(prog, interp.Options{Rand: rand.New(rand.NewSource(seed)), MaxSteps: 10000})
		if !res.Completed && !res.Stuck {
			t.Fatalf("seed %d: budget exhausted on a terminating program", seed)
		}
		if res.Completed && res.Final[lang.Var("__err")] != 0 {
			t.Fatalf("seed %d: assertion violated in a safe program", seed)
		}
	}
}

func TestParamsAndReturns(t *testing.T) {
	prog := MustParse(`
globals r;
proc main {
  locals x;
  x = add(3, 4);
  r = x;
}
proc add(a, b) {
  return a + b;
}`)
	res := interp.Run(prog, interp.Options{})
	if !res.Completed || res.Final["r"] != 7 {
		t.Fatalf("r = %d (completed=%v), want 7", res.Final["r"], res.Completed)
	}
}

func TestParamsIgnoredReturn(t *testing.T) {
	prog := MustParse(`
globals g;
proc main {
  bump(5);
}
proc bump(n) {
  g = g + n;
}`)
	res := interp.Run(prog, interp.Options{})
	if res.Final["g"] != 5 {
		t.Fatalf("g = %d", res.Final["g"])
	}
}

func TestEarlyReturnSkipsRest(t *testing.T) {
	prog := MustParse(`
globals r;
proc main {
  locals v;
  v = pick(1);
  r = v;
}
proc pick(c) {
  if (c > 0) {
    return 10;
  }
  return 20;
}`)
	res := interp.Run(prog, interp.Options{})
	if res.Final["r"] != 10 {
		t.Fatalf("r = %d, want 10", res.Final["r"])
	}
}

func TestBareReturn(t *testing.T) {
	prog := MustParse(`
globals g;
proc main {
  quit();
  g = 1;
}
proc quit {
  return;
  g = 99;
}`)
	res := interp.Run(prog, interp.Options{})
	if res.Final["g"] != 1 {
		t.Fatalf("g = %d (the callee's dead code ran?)", res.Final["g"])
	}
}

func TestArityMismatch(t *testing.T) {
	_, err := Parse(`
proc main { f(1); }
proc f(a, b) { skip; }`)
	if err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Fatalf("err = %v", err)
	}
}

func TestSugaredRecursionRejected(t *testing.T) {
	_, err := Parse(`
proc main { locals x; x = f(3); }
proc f(n) {
  if (n > 0) {
    f(n - 1);
  }
  return n;
}`)
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err = %v", err)
	}
}

func TestPlainRecursionStillAllowed(t *testing.T) {
	// Recursion without parameters/returns stays legal (the formal model
	// permits it; summaries handle it demand-driven).
	if _, err := Parse(`
globals n;
proc main { n = 3; down(); }
proc down {
  if (n > 0) {
    n = n - 1;
    down();
  }
}`); err != nil {
		t.Fatalf("plain recursion rejected: %v", err)
	}
}
