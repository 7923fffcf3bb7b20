package core

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/may"
	"repro/internal/punch/maymust"
	"repro/internal/punch/must"
)

// TestProgramsWithoutAssertAreSafe: a program with no assert or abort
// never raises the error flag, so no analysis on any engine may report
// it Error Reachable, and the analyses that prove (may, may-must) must
// report it Safe.
func TestProgramsWithoutAssertAreSafe(t *testing.T) {
	srcs := map[string]string{
		"empty main":    `proc main { }`,
		"global assign": `globals g; proc main { g = 0; }`,
	}
	analyses := map[string]func() punch.Punch{
		"may":      func() punch.Punch { return may.New() },
		"must":     func() punch.Punch { return must.New() },
		"may-must": func() punch.Punch { return maymust.New() },
	}
	for name, src := range srcs {
		prog := parser.MustParse(src)
		q := AssertionQuestion(prog)
		for an, newPunch := range analyses {
			verdicts := map[string]Verdict{
				"barrier":   New(prog, Options{Punch: newPunch(), MaxThreads: 2, MaxIterations: 200}).Run(q).Verdict,
				"streaming": New(prog, Options{Punch: newPunch(), MaxThreads: 2, MaxIterations: 200, Async: true}).Run(q).Verdict,
				"cluster":   NewDistributed(prog, DistOptions{Punch: newPunch(), Nodes: 2, ThreadsPerNode: 2, MaxRounds: 200}).Run(q).Verdict,
			}
			for engine, v := range verdicts {
				if v == ErrorReachable || (an != "must" && v != Safe) {
					t.Errorf("%s, %s on %s: %v", name, an, engine, v)
				}
			}
		}
	}
}
