package maymust

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

func TestLoopEndToEnd(t *testing.T) {
	prog := parser.MustParse(`
proc main {
  locals i;
  i = 0;
  while (i < 5) { i = i + 1; }
  assert(i >= 5);
}`)
	a := New()
	if os.Getenv("MAYMUST_DEBUG") != "" {
		a.Debug = os.Stderr
	}
	eng := core.New(prog, core.Options{Punch: checked{a, t}, MaxThreads: 1, MaxIterations: 60, CheckContract: true})
	res := eng.Run(core.AssertionQuestion(prog))
	if res.Verdict != core.Safe {
		t.Fatalf("verdict: %v iters=%d", res.Verdict, res.Iterations)
	}
}
