package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
)

// randProgram emits a random structured program: up to three helper
// procedures manipulating two globals under guards, a main that calls
// them, and a final assertion. Havoc values are small so concrete
// enumeration is an effective oracle.
func randProgram(r *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "globals ga, gb;\n")

	nHelpers := 1 + r.Intn(3)
	stmt := func(depth int) string {
		g := []string{"ga", "gb"}[r.Intn(2)]
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("%s = %s + %d;", g, g, r.Intn(3)-1)
		case 1:
			return fmt.Sprintf("%s = %d;", g, r.Intn(5)-2)
		case 2:
			return fmt.Sprintf("if (%s > %d) { %s = %s - 1; }", g, r.Intn(3), g, g)
		case 3:
			return fmt.Sprintf("if (ga > gb) { %s = %d; } else { %s = %s + 1; }",
				g, r.Intn(3), g, g)
		case 4:
			return fmt.Sprintf("havoc t; assume(t >= %d && t <= %d); %s = %s + t;",
				-1, 1, g, g)
		default:
			return "skip;"
		}
	}
	for h := 0; h < nHelpers; h++ {
		fmt.Fprintf(&b, "proc helper%d {\n  locals t;\n", h)
		for i := 0; i < 2+r.Intn(3); i++ {
			fmt.Fprintf(&b, "  %s\n", stmt(0))
		}
		fmt.Fprintf(&b, "}\n")
	}
	fmt.Fprintf(&b, "proc main {\n  locals t;\n  ga = %d; gb = %d;\n", r.Intn(3), r.Intn(3))
	for i := 0; i < 2+r.Intn(3); i++ {
		if r.Intn(3) == 0 {
			fmt.Fprintf(&b, "  helper%d();\n", r.Intn(nHelpers))
		} else {
			fmt.Fprintf(&b, "  %s\n", stmt(0))
		}
	}
	bound := r.Intn(9) - 1
	op := []string{"<=", ">="}[r.Intn(2)]
	fmt.Fprintf(&b, "  assert(ga %s %d);\n}\n", op, bound)
	return b.String()
}

// TestFuzzVerdictSoundness: on 60 random programs the engine's verdict
// must never contradict concrete exploration — Safe programs have no
// failing run, ErrorReachable verdicts have a concrete witness.
func TestFuzzVerdictSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is not short")
	}
	r := rand.New(rand.NewSource(20260705))
	unknowns := 0
	for i := 0; i < 60; i++ {
		src := randProgram(r)
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		res := New(prog, Options{
			Punch:         maymust.New(),
			MaxThreads:    4,
			MaxIterations: 1500,
			CheckContract: true,
		}).Run(AssertionQuestion(prog))

		concreteFails := false
		for seed := int64(0); seed < 400 && !concreteFails; seed++ {
			cr := interp.Run(prog, interp.Options{
				Rand:       rand.New(rand.NewSource(seed)),
				MaxSteps:   20000,
				HavocRange: 2,
			})
			concreteFails = cr.Completed && cr.Final[parser.ErrVar] != 0
		}
		switch res.Verdict {
		case Safe:
			if concreteFails {
				t.Fatalf("program %d: Safe verdict contradicted concretely\n%s", i, src)
			}
		case ErrorReachable:
			if !concreteFails {
				// The witness may need havoc values outside the concrete
				// search range; widen once before failing.
				wide := false
				for seed := int64(0); seed < 1000 && !wide; seed++ {
					cr := interp.Run(prog, interp.Options{
						Rand:       rand.New(rand.NewSource(seed)),
						MaxSteps:   20000,
						HavocRange: 8,
					})
					wide = cr.Completed && cr.Final[parser.ErrVar] != 0
				}
				if !wide {
					t.Fatalf("program %d: ErrorReachable not witnessed\n%s", i, src)
				}
			}
		default:
			unknowns++
		}
	}
	if unknowns > 20 {
		t.Errorf("too many inconclusive fuzz verdicts: %d/60", unknowns)
	}
}

// TestFuzzEngineConfluence: sequential, parallel and streaming engines
// agree on random programs (Unknown counts as agreement with anything,
// since it only reflects resource budgets).
func TestFuzzEngineConfluence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is not short")
	}
	r := rand.New(rand.NewSource(7))
	configs := []Options{
		{MaxThreads: 1},
		{MaxThreads: 8},
		{MaxThreads: 1, Async: true},
		{MaxThreads: 8, Async: true},
	}
	for i := 0; i < 25; i++ {
		src := randProgram(r)
		prog := parser.MustParse(src)
		verdicts := make([]Verdict, len(configs))
		for j, o := range configs {
			o.Punch = maymust.New()
			o.MaxIterations = 1200
			verdicts[j] = New(prog, o).Run(AssertionQuestion(prog)).Verdict
		}
		for j := 1; j < len(verdicts); j++ {
			a, b := verdicts[0], verdicts[j]
			if a != Unknown && b != Unknown && a != b {
				t.Fatalf("engine configs 0 and %d disagree (%v vs %v) on\n%s", j, a, b, src)
			}
		}
	}
}
