GO ?= go

.PHONY: ci fmt vet build cross test race traj-pin traj-diff verdict-sweep one-reduce dead-exports alloc-pin trace-smoke prof-selftest watchdog-smoke prov-smoke incr-smoke bench-smoke fuzz-smoke bench

# ci is the tier-1 gate: everything must pass before a change lands.
ci: fmt vet build cross test race traj-pin verdict-sweep one-reduce dead-exports alloc-pin trace-smoke prof-selftest watchdog-smoke prov-smoke incr-smoke bench-smoke fuzz-smoke

# fmt fails when any tracked file is not gofmt-clean (prints offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cross builds for a 32-bit target: int is 32 bits there, which catches
# the signed-overflow bug class (e.g. int(hash32) % n going negative)
# together with vet and the uint32-modulo regression tests.
cross:
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# race re-runs the concurrency-heavy packages under the race detector:
# the streaming engine and two overlapping checks in one process (the
# intern table is dropped only when both have ended), the summary
# database, the solver's memos and fuzz seed corpus (shared interning
# table under concurrent PUNCH; eight goroutines simplifying overlapping
# cubes on one solver), the PUNCH instantiations and the region
# graph (four streaming workers on one solver's memos and one shelf of
# region graphs), the hash-consing
# table itself (builders racing with drops), readers of a solver memo
# probing while writers grow it, the
# query tree's coalescing machinery, the persistent summary store (every
# mutating method at once on one handle), and the observability layer (live probe, watchdog, flight recorder, debug
# server — all sampled from outside the run's goroutines).
race:
	$(GO) test -race ./internal/core/... ./internal/summary/... ./internal/smt ./internal/punch/... ./internal/logic ./internal/query ./internal/store ./internal/wire ./internal/obs ./internal/incr

# traj-pin holds the one-thread trajectory of the analyses still: verdict,
# virtual ticks, query count and solver calls of the six Table-1 checks
# and of every corpus program under all three analyses, on the
# barrier and on the streaming engine, must equal testdata/traj_pin.golden. A perf change that passes it did the same work
# in less time; one that moves the trajectory on purpose regenerates the
# table with `go test -run TestTrajectoryPin -update-traj .` and says so.
# Beside it, the metrics pin: every registry key of a run (wall-clock keys
# aside) for the corpus under all three analyses on the barrier engine, the
# streaming engine and a one-node cluster must equal
# testdata/metrics_pin.golden (regenerate on purpose with
# `go test -run TestMetricsPin -update-metrics .`).
traj-pin:
	$(GO) test -run 'TestTrajectoryPin|TestMetricsPin' -count=1 .

# traj-diff is what a change that moves the trajectory on purpose runs
# before it regenerates the table: every row that moved, old → new, with
# column totals. It fails only when a verdict changed.
traj-diff:
	$(GO) test -run TestTrajectoryPin -count=1 -traj-diff .

# verdict-sweep runs the seven named drivers against every property, safe
# and buggy, under may-must on one thread with a 300 000-tick budget, and
# fails on any definite verdict that contradicts the check's known answer.
# It prints how many checks each side decided: an Unknown is allowed, a
# wrong verdict is not. The test skips itself without -sweep, so `test`
# does not run it a second time.
verdict-sweep:
	$(GO) test ./internal/harness -run TestVerdictSweep -count=1 -v -sweep

# one-reduce is a structural lint: the operations REDUCE and a run's
# set-up and tear-down are made of (child insertion, coalescing, Done
# fan-out, subtree GC, the PUNCH wrapper, store hydration and persist,
# provenance finish) may be called from internal/core/reduce.go only, so
# no engine can grow a private copy again. Likewise for the three PUNCH
# instantiations: the statement image, the renaming of a call crossing,
# the pins of a must summary and the store copy are written once, in
# internal/punch/kernel.go, never in must/, may/ or maymust/.
one-reduce:
	$(GO) test -run TestOneReduce -count=1 ./internal/core
	$(GO) test -run TestOnePunchKernel -count=1 ./internal/punch

# dead-exports is a structural lint: every exported function under
# internal/ has a caller in the module's non-test code, and every field
# of the five option structs is set by a caller outside tests, or is on
# the short, reasoned allowlists in deadexport_test.go.
dead-exports:
	$(GO) test -run 'TestNoDeadExports|TestNoDeadOptions' -count=1 .

# alloc-pin holds the allocation of a check: parport/PowerDownFail on one
# thread, twice in one process, the second run's
# runtime.MemStats.TotalAlloc against the budget committed in
# alloc_pin_test.go (the first run drops the intern table, so the second
# interns its formulas again). Beside it, the heap pin: five different
# Table-1 checks in a row leave no more heap in use after a collection
# than the first did, because what a check interns ends with it. The
# warm pin: a re-check of an unchanged program that reuses its stored
# verdict interns nothing beyond its root question, never renders the
# program, and allocates no more than its budget in warm_pin_test.go. The
# formula constructors, and the term arithmetic on the way to them,
# allocate nothing when they return an existing node, nor does keying a
# formula of a dropped generation once it is interned again
# (testing.AllocsPerRun). The region graph's pins: a path search on a
# settled graph allocates nothing (the path is the graph's), minting a
# region and splitting one allocate nothing beyond the partition slice
# when the graph's chunks and slab of list heads have room, the slab holds
# no more blocks of heads for a node than it had regions at once (a split
# gives the retired region's block back), an edge record
# (24 bytes, the links of its two lists included) and a list head hold no
# field of a kind that holds a pointer, and taking a finished query's
# graph off its shelf allocates nothing (a move, never a copy). The cube
# kernel's: with its pool warm, enumerating a DNF, a real-shadow check
# of a cube and the refutation that a cube entails an atom allocate
# nothing. The solver's: an Implies miss that the subsumption rule settles
# allocates nothing, nor does simplifying a cube whose result exists, nor
# does a memo hit; a memo slot holds no pointer.
# The manifest's: a snapshot allocates nothing per edge or statement.
# The front end's: parsing parport/PowerUpFail allocates no more than its
# budget in internal/parser/bench_test.go. The cluster's: a gossip
# exchange with nothing new allocates nothing, with 10 summaries a shard
# as with 1 000, and a 2-node check of a fan-out-16 driver, 1 305 rounds
# of gossip, allocates no more than its budget in alloc_pin_test.go. The
# summary database's: a new procedure costs as many bytes among 4 000 as
# among 100.
alloc-pin:
	$(GO) test -run 'TestAllocPin|TestHeapPin|TestWarmRecheckPin|TestClusterAllocPin' -count=1 .
	$(GO) test -run TestIdleGossipAllocPin -count=1 ./internal/core
	$(GO) test -run TestAddProcsLinear -count=1 ./internal/summary
	$(GO) test -run TestConstructorHitPathAllocFree -count=1 ./internal/logic
	$(GO) test -run 'TestFindPathAllocPin|TestSplitAllocPin|TestSplitReusesHeads|TestEdgeRecordPointerFree|TestShelfTakeAllocFree' -count=1 ./internal/punch/regions
	$(GO) test -run TestCubeKernelAllocPin -count=1 ./internal/logic
	$(GO) test -run 'TestSolverAllocPin|TestMemoSlotsPointerFree' -count=1 ./internal/smt
	$(GO) test -run TestSnapshotAllocPin -count=1 ./internal/incr
	$(GO) test -run TestParseAllocPin -count=1 ./internal/parser

# trace-smoke records a corpus program on all three engines, converts
# each stream with obs.WriteChrome and validates the document, then
# round-trips one JSONL file through `boltprof -report chrome` and
# requires the same document.
trace-smoke:
	$(GO) test -run TestTraceRoundTrip -count=1 ./internal/obs
	$(GO) test -run TestReportChrome -count=1 ./cmd/boltprof

# prof-selftest replays the corpus through all three engines, pipes each
# event stream through the JSONL encoding, and checks the trace
# analyzer's invariants (span <= work, critical path sums to span, ...)
# and, on the barrier and cluster runs, span <= makespan: a run's own
# clock never reports less than the trace's critical path.
prof-selftest:
	$(GO) run ./cmd/boltprof -selftest

# watchdog-smoke seeds a deliberate stall (a PUNCH parked on a gate),
# points the stall watchdog at the live probe on a fast tick, and
# requires a structured diagnosis with the flight recorder's event
# history attached before the run is released.
watchdog-smoke:
	$(GO) test -run TestWatchdogStallSmoke -count=1 ./internal/core

# prov-smoke asserts the provenance invariants on the whole corpus:
# every verdict's cone is non-empty, closed under spawn and dependency
# edges, and byte-stable across the barrier, async, and distributed
# schedules — and invalidating prov.Cone(p) for any procedure leaves a
# warm re-check confluent with a from-scratch run. TestProvPin holds the
# whole provenance record of every corpus program under may and
# may-must, one thread, barrier engine, to testdata/prov_pin.golden
# (regenerate with `go test -run TestProvPin -update-prov .`).
prov-smoke:
	$(GO) test -run 'TestProvSmoke|TestConeInvalidationConfluence' -count=1 ./internal/core
	$(GO) test -run TestProvPin -count=1 .

# incr-smoke asserts end-to-end soundness of incremental re-checks: on
# every corpus program and every engine, mutate each procedure once in
# an edit session and re-check incrementally over the surviving
# summaries; every step's verdict must match a from-scratch run. The
# semantic edits (TestSemanticEdits) do the same for edits that flip a
# verdict, grow a Mod set or contradict a stored summary, on the corpus
# and the parport four, and check that the cutoff at the edited
# procedure falls back when it must.
incr-smoke:
	$(GO) test -run 'TestIncrSmoke|TestSemanticEdits' -count=1 ./internal/incr

# bench-smoke vets and tests the benchmark pipeline. bench/ is its own
# module, so `go test ./...` at the root never compiles it: an API change
# under it would otherwise show only when the pipeline runs. The perf gate
# itself is the benchmark (BENCHMARK.json, `bash bench/run.sh`).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each fuzzer a short budget: the solver against its
# reference implementation, Simplify on cubes against the formula-level
# filter it replaced, the one-step check and the must side's membership
# check decided in the cube kernel against Sat on the formulas they no
# longer build, the cube kernel (DNF enumeration and
# Fourier–Motzkin projection) against its reference implementation, the
# wire codec's decode/re-encode round trip on arbitrary bytes (with the
# intern table dropped in between), arbitrary
# bytes as the store's log, and arbitrary text as a program (each a typed
# error or a clean result, never a panic), arbitrary text through the
# front end and through its reference (the same program, or the same
# error at the same line and column), and scripted clusters through the
# gossip exchange and through the one it replaced (the same deliveries in
# the same order, the same drops, shards and rng draws).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDPLLAgainstReference -fuzztime 10s ./internal/smt
	$(GO) test -run '^$$' -fuzz FuzzSimplifyAgainstReference -fuzztime 10s ./internal/smt
	$(GO) test -run '^$$' -fuzz FuzzStepKernelAgainstFormula -fuzztime 10s ./internal/smt
	$(GO) test -run '^$$' -fuzz FuzzMeetKernelAgainstFormula -fuzztime 10s ./internal/smt
	$(GO) test -run '^$$' -fuzz FuzzCubeKernelAgainstReference -fuzztime 10s ./internal/logic
	$(GO) test -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/logic
	$(GO) test -run '^$$' -fuzz FuzzStoreOpen -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzParseAgainstReference -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzGossipAgainstReference -fuzztime 10s ./internal/core

# bench runs every benchmark in the repo once (all packages, not just
# the root: the harness, solver and store benches live in subpackages).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
