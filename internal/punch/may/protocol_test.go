package may

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
)

func TestMayProtocolSoundness(t *testing.T) {
	prog := parser.MustParse(`
globals reqs, grants;
proc main {
  reqs = 0; grants = 0;
  client();
  client();
  server();
  assert(grants <= reqs);
}
proc client {
  locals want;
  havoc want;
  if (want > 0) { reqs = reqs + 1; }
}
proc server {
  if (grants < reqs) { grants = grants + 1; }
}`)
	a := New()
	if os.Getenv("MAY_DEBUG") != "" {
		a.Debug = os.Stderr
	}
	eng := core.New(prog, core.Options{Punch: checked{a, t}, MaxThreads: 4, MaxIterations: 150, CheckContract: true})
	res := eng.Run(core.AssertionQuestion(prog))
	// Without interpolant-guided predicate discovery the pure may analysis
	// may enumerate value-level regions on this protocol instead of
	// converging (the may-must instantiation proves it immediately); the
	// requirement here is soundness within the budget.
	if res.Verdict == core.ErrorReachable {
		t.Fatalf("unsound verdict = %v (queries=%d iters=%d)", res.Verdict, res.TotalQueries, res.Iterations)
	}
}
