// Edit-session driver behind `make incr-smoke`: K successive
// single-procedure mutations of one program, re-checked incrementally
// over a shared summary store after each edit, with a from-scratch run
// per step as the confluence oracle.
package harness

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
)

// EditStep is one mutate-and-recheck round of an edit session.
type EditStep struct {
	// Proc is the mutated procedure; Seed the mutation seed.
	Proc string
	Seed int64
	// Invalidated counts the summaries the re-check's cone discarded.
	Invalidated int
	// ColdVerdict is the from-scratch run on the edited program (no
	// store), RecheckVerdict the incremental re-check over the session
	// store; their agreement (Confluent) is the soundness oracle: an
	// incremental re-check must never change the answer.
	ColdVerdict    core.Verdict
	RecheckVerdict core.Verdict
	Confluent      bool
	// Err is the step's first failure (mutation, parse, or store).
	Err error
}

// RunEditSession mutates src's procedures round-robin (procs sorted,
// step i mutates procs[i%n] with seed+i), re-checking incrementally
// after each edit on the named engine ("barrier", "async", or "dist")
// over one shared in-memory store that an initial run populates. Each
// step also runs the edited program from scratch for verdict confluence.
func RunEditSession(name, src string, steps int, seed int64, threads int, engine string, opts Options) ([]EditStep, error) {
	opts = opts.withDefaults()
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("edit session %s: %w", name, err)
	}
	procs := prog.ProcNames()
	var out []EditStep

	st := store.NewMem()
	if _, err := runIncrEngine(prog, threads, engine, st, opts); err != nil {
		return out, fmt.Errorf("edit session %s: populate: %w", name, err)
	}

	cur := src
	for i := 0; i < steps; i++ {
		step := EditStep{Proc: procs[i%len(procs)], Seed: seed + int64(i)}
		mutated, err := incr.MutateSource(cur, step.Proc, step.Seed)
		if err != nil {
			step.Err = err
			out = append(out, step)
			return out, fmt.Errorf("edit session %s: step %d: %w", name, i, err)
		}
		cur = mutated
		edited, err := parser.Parse(cur)
		if err != nil {
			step.Err = err
			out = append(out, step)
			return out, fmt.Errorf("edit session %s: step %d: %w", name, i, err)
		}

		re, err := runIncrEngine(edited, threads, engine, st, opts)
		if err != nil {
			step.Err = err
			out = append(out, step)
			return out, fmt.Errorf("edit session %s: step %d: %w", name, i, err)
		}
		step.RecheckVerdict = re.verdict
		step.Invalidated = re.invalidated

		cold, err := runIncrEngine(edited, threads, engine, nil, opts)
		if err != nil {
			step.Err = err
			out = append(out, step)
			return out, fmt.Errorf("edit session %s: step %d: %w", name, i, err)
		}
		step.ColdVerdict = cold.verdict
		step.Confluent = step.RecheckVerdict == step.ColdVerdict
		out = append(out, step)
	}
	return out, nil
}

// incrRun is the engine-independent slice of one run an edit session
// cares about.
type incrRun struct {
	verdict     core.Verdict
	invalidated int
}

// runIncrEngine runs one check on the named engine. A nil store means a
// from-scratch run (no warm-start, no incremental machinery).
func runIncrEngine(prog *cfg.Program, threads int, engine string, st store.Store, opts Options) (incrRun, error) {
	switch engine {
	case "barrier", "async":
		eng := core.New(prog, core.Options{
			Punch:           maymust.New(),
			MaxThreads:      threads,
			VirtualCores:    paperCores,
			MaxVirtualTicks: opts.TickBudget,
			RealTimeout:     opts.WallBudget,
			MaxIterations:   1 << 19,
			Async:           engine == "async",
			Store:           st,
			Incremental:     st != nil,
		})
		r := eng.Run(core.AssertionQuestion(prog))
		if r.StoreErr != nil {
			return incrRun{}, r.StoreErr
		}
		return incrRun{verdict: r.Verdict, invalidated: r.InvalidatedSummaries}, nil
	case "dist":
		eng := core.NewDistributed(prog, core.DistOptions{
			Punch:          maymust.New(),
			Nodes:          3,
			ThreadsPerNode: max(1, threads/3),
			RealTimeout:    opts.WallBudget,
			Store:          st,
			Incremental:    st != nil,
		})
		r := eng.Run(core.AssertionQuestion(prog))
		if r.StoreErr != nil {
			return incrRun{}, r.StoreErr
		}
		return incrRun{verdict: r.Verdict, invalidated: r.InvalidatedSummaries}, nil
	}
	return incrRun{}, fmt.Errorf("unknown engine %q", engine)
}
