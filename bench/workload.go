package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	bolt "repro"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/incr"
)

// Engine configurations an operation can run under.
const (
	engSeq     = "seq"     // barrier engine, one thread: the paper's sequential baseline
	engBarrier = "barrier" // bulk-synchronous MAP/REDUCE at the box's thread count
	engStream  = "stream"  // streaming work-stealing engine (Options.Async)
	engDist    = "dist"    // CheckDistributed, one thread per simulated node
)

// Known answers. They come from how an input was made (Config.Buggy, the
// corpus file-name prefix), never from the checker under test.
const (
	expectSafe = "safe"
	expectBug  = "bug"
)

// Budgets of the corpus matrix. Every cell the corpus decides needs at
// most 31k ticks and 49 rounds; the may analysis on the two looping
// programs never converges and only burns whatever budget it is given, so
// the budget is sized to keep those cells near the cost of the slowest
// decided cell instead of letting them dominate the pass.
const (
	corpusMaxTicks  = 25000
	corpusMaxRounds = 80
)

// corpusRepeats is how often one pass walks the whole matrix.
const corpusRepeats = 3

// warmRechecks is the number of unchanged-source re-checks per program in
// an edit session.
const warmRechecks = 50

// op is one operation: one source text taken to one verdict.
type op struct {
	Name      string `json:"name"`
	Segment   string `json:"segment"`
	Src       int    `json:"src"` // index into workload.Sources
	Analysis  string `json:"analysis"`
	Engine    string `json:"engine"`
	Threads   int    `json:"threads"`
	MaxTicks  int64  `json:"max_ticks,omitempty"`
	MaxRounds int    `json:"max_rounds,omitempty"`
	Witness   bool   `json:"witness,omitempty"`
	// Store names the incremental summary store the operation opens
	// (a directory below the pass's own directory); empty means none.
	Store  string `json:"store,omitempty"`
	Expect string `json:"expect"`
}

// input identifies source text and analysis, so that parallel work can be
// held against one-thread work on the same input.
func (o op) input() string { return fmt.Sprintf("%d|%s", o.Src, o.Analysis) }

// workload is the generated input of one run: what set-up produces and
// the only thing a measuring child process reads.
type workload struct {
	Name    string   `json:"name"`
	Seed    int64    `json:"seed"`
	Threads int      `json:"threads"`
	Sources []string `json:"sources"`
	Ops     []op     `json:"ops"`
	// Probe is the index of the source the traced pass uses for its
	// paired provenance and persist-tax measurements (-1: none).
	Probe int `json:"probe"`
}

var workloadWhy = []struct{ name, why string }{
	{"table1_seq", "six Table-1 proofs and three buggy variants on one thread: solver, logic and PUNCH cost with no scheduler in play"},
	{"table1_par", "the same six proofs on the streaming engine, then the parport four on the barrier engine and the simulated cluster: scheduler, sharing, redundant work"},
	{"corpus_matrix", "11 hand-written programs x 3 analyses x 4 engine set-ups: the latency floor of a small check, where the solver hardly counts"},
	{"edit_session", "cold-and-persist, 50 unchanged re-checks and one edit per procedure on the parport four: store, wire, incr and prov at work"},
}

func workloadNames() []string {
	out := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		out[i] = w.name
	}
	return out
}

func (w *workload) usesStore() bool {
	for _, o := range w.Ops {
		if o.Store != "" {
			return true
		}
	}
	return false
}

func (w *workload) addSource(src string) int {
	w.Sources = append(w.Sources, src)
	return len(w.Sources) - 1
}

// perturb is what -seed does to a program: with seed 0 the text is
// returned as generated; any other seed inserts dead control flow
// (incr.MutateSource) into about half of its procedures. The edit keeps
// the program's meaning, hence its known answer, and moves its analysis
// cost by well under the noise bounds, which a fresh draw of the driver
// generator (±10 % work) would not.
func perturb(src string, seed int64, salt string) (string, error) {
	if seed == 0 {
		return src, nil
	}
	prog, err := bolt.Parse(src)
	if err != nil {
		return "", fmt.Errorf("perturb %s: %w", salt, err)
	}
	h := fnv.New64a()
	h.Write([]byte(salt))
	rng := rand.New(rand.NewSource(seed*1000003 + int64(h.Sum64()>>1)))
	for _, proc := range prog.Procedures() {
		if rng.Intn(2) == 0 {
			continue
		}
		if src, err = incr.MutateSource(src, proc, rng.Int63()); err != nil {
			return "", fmt.Errorf("perturb %s: %w", salt, err)
		}
	}
	return src, nil
}

func driverSource(c drivers.Check, seed int64) (string, error) {
	salt := c.ID()
	if c.Config.Buggy {
		salt += "/buggy"
	}
	return perturb(drivers.Source(c.Config), seed, salt)
}

// buggyChecks are the three Table-1 variants with an injected violation.
func buggyChecks() []drivers.Check {
	return []drivers.Check{
		drivers.NamedCheck("toastmon", "PnpIrpCompletion", true),
		drivers.NamedCheck("parport", "MarkPowerDown", true),
		drivers.NamedCheck("parport", "PowerUpFail", true),
	}
}

// parportFour are the four parport checks of Table 1.
func parportFour() []drivers.Check { return harness.Table1Checks()[2:] }

// buildWorkload generates the named workload's inputs from the seed.
// root is the repository root (the corpus is read from it); threads is
// the thread, virtual-core and node count of every parallel operation.
func buildWorkload(name string, seed int64, threads int, root string) (*workload, error) {
	w := &workload{Name: name, Seed: seed, Threads: threads, Probe: -1}
	var err error
	switch name {
	case "table1_seq":
		err = w.buildTable1Seq()
	case "table1_par":
		err = w.buildTable1Par()
	case "corpus_matrix":
		err = w.buildCorpusMatrix(root)
	case "edit_session":
		err = w.buildEditSession(parportFour(), warmRechecks)
	case smokeWorkload:
		err = w.buildSmoke()
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *workload) driverOp(segment, engine string, threads int, c drivers.Check, src int) op {
	id := c.ID()
	if c.Config.Buggy {
		id += "+bug"
	}
	o := op{
		Name:     segment + "/" + id,
		Segment:  segment,
		Src:      src,
		Analysis: "may-must",
		Engine:   engine,
		Threads:  threads,
		Expect:   expectSafe,
	}
	if c.Config.Buggy {
		o.Expect = expectBug
		o.Witness = true
	}
	return o
}

func (w *workload) buildTable1Seq() error {
	for _, c := range harness.Table1Checks() {
		src, err := driverSource(c, w.Seed)
		if err != nil {
			return err
		}
		i := w.addSource(src)
		if c.ID() == "parport/PowerUpFail" {
			w.Probe = i
		}
		w.Ops = append(w.Ops, w.driverOp("safe", engSeq, 1, c, i))
	}
	for _, c := range buggyChecks() {
		src, err := driverSource(c, w.Seed)
		if err != nil {
			return err
		}
		w.Ops = append(w.Ops, w.driverOp("refute", engSeq, 1, c, w.addSource(src)))
	}
	return nil
}

func (w *workload) buildTable1Par() error {
	idx := map[string]int{}
	for _, c := range harness.Table1Checks() {
		src, err := driverSource(c, w.Seed)
		if err != nil {
			return err
		}
		idx[c.ID()] = w.addSource(src)
		w.Ops = append(w.Ops, w.driverOp("stream", engStream, w.Threads, c, idx[c.ID()]))
	}
	for _, engine := range []string{engBarrier, engDist} {
		for _, c := range parportFour() {
			w.Ops = append(w.Ops, w.driverOp(engine, engine, w.Threads, c, idx[c.ID()]))
		}
	}
	return nil
}

func (w *workload) buildCorpusMatrix(root string) error {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "corpus", "*.bolt"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no corpus under %s", filepath.Join(root, "testdata", "corpus"))
	}
	sort.Strings(files)
	type cell struct {
		analysis, engine string
		threads          int
	}
	var cells []cell
	for _, a := range []string{"must", "may", "may-must"} {
		cells = append(cells,
			cell{a, engSeq, 1}, cell{a, engBarrier, w.Threads},
			cell{a, engStream, w.Threads}, cell{a, engDist, w.Threads})
	}
	var once []op
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".bolt")
		var expect string
		switch {
		case strings.HasPrefix(base, "safe_"):
			expect = expectSafe
		case strings.HasPrefix(base, "bug_"):
			expect = expectBug
		default:
			return fmt.Errorf("corpus file %s: no safe_/bug_ prefix to take the known answer from", f)
		}
		text, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		src, err := perturb(string(text), w.Seed, base)
		if err != nil {
			return err
		}
		i := w.addSource(src)
		for _, c := range cells {
			once = append(once, op{
				Name:      fmt.Sprintf("%s/%s/%s", base, c.analysis, c.engine),
				Segment:   "cell",
				Src:       i,
				Analysis:  c.analysis,
				Engine:    c.engine,
				Threads:   c.threads,
				MaxTicks:  corpusMaxTicks,
				MaxRounds: corpusMaxRounds,
				Expect:    expect,
			})
		}
	}
	for r := 0; r < corpusRepeats; r++ {
		w.Ops = append(w.Ops, once...)
	}
	return nil
}

// buildEditSession lays out, per program, one cold-and-persist check, the
// unchanged re-checks, and then one cumulative edit per procedure in
// program order with an incremental re-check after each. The seed picks
// the shape of every edit; the set and order of edited procedures is
// fixed, because which procedure is edited decides how much of the store
// survives and would otherwise swamp the noise bounds.
func (w *workload) buildEditSession(checks []drivers.Check, warm int) error {
	rng := rand.New(rand.NewSource(w.Seed*7919 + 17))
	for _, c := range checks {
		src, err := driverSource(c, w.Seed)
		if err != nil {
			return err
		}
		prog, err := bolt.Parse(src)
		if err != nil {
			return err
		}
		store := strings.ReplaceAll(c.ID(), "/", "_")
		i := w.addSource(src)
		if c.ID() == "parport/PowerUpFail" || len(checks) == 1 {
			w.Probe = i
		}
		base := w.driverOp("cold", engSeq, 1, c, i)
		base.Store = store
		w.Ops = append(w.Ops, base)
		for k := 0; k < warm; k++ {
			o := base
			o.Segment, o.Name = "warm", "warm/"+c.ID()
			w.Ops = append(w.Ops, o)
		}
		for _, proc := range prog.Procedures() {
			if src, err = incr.MutateSource(src, proc, rng.Int63()); err != nil {
				return err
			}
			o := base
			o.Segment, o.Name, o.Src = "edit", fmt.Sprintf("edit/%s:%s", c.ID(), proc), w.addSource(src)
			w.Ops = append(w.Ops, o)
		}
	}
	return nil
}

// smokeWorkload is not a workload of BENCHMARK.json: it is the smallest
// input that still goes down every path of the benchmark, for the
// package's own test. One small program under every engine, its buggy
// variant, and an edit session.
const smokeWorkload = "smoke"

func (w *workload) buildSmoke() error {
	safe := drivers.NamedCheck("parport", "PowerDownFail", false)
	src, err := driverSource(safe, w.Seed)
	if err != nil {
		return err
	}
	i := w.addSource(src)
	for _, engine := range []string{engSeq, engStream, engDist} {
		threads := w.Threads
		if engine == engSeq {
			threads = 1
		}
		w.Ops = append(w.Ops, w.driverOp(engine, engine, threads, safe, i))
	}
	bug := drivers.NamedCheck("parport", "PowerDownFail", true)
	if src, err = driverSource(bug, w.Seed); err != nil {
		return err
	}
	w.Ops = append(w.Ops, w.driverOp("refute", engSeq, 1, bug, w.addSource(src)))
	return w.buildEditSession([]drivers.Check{safe}, 3)
}

// setup is the benchmark's set-up step: generate the workload's inputs
// and write them where the measuring processes read them.
func setup(name string, seed int64, threads int, root, dir string) (*workload, error) {
	w, err := buildWorkload(name, seed, threads, root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "workload.json"), data, 0o644); err != nil {
		return nil, err
	}
	return w, nil
}

func loadWorkload(dir string) (*workload, error) {
	data, err := os.ReadFile(filepath.Join(dir, "workload.json"))
	if err != nil {
		return nil, err
	}
	w := &workload{}
	if err := json.Unmarshal(data, w); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, "workload.json"), err)
	}
	return w, nil
}
