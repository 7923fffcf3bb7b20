// The assembled provenance artifact: Finish freezes a Fold into a
// Provenance — the verdict→summary→procedure dependency DAG plus the
// derived views (the verdict's procedure cone, per-procedure
// invalidation cones, warm-vs-fresh attribution, and the explain
// report the CLIs print).

package prov

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// SummaryNode is one distinct summary in the provenance DAG with its
// accumulated traffic.
type SummaryNode struct {
	Proc string `json:"proc"`
	Kind string `json:"kind"`
	// Pre/Post are display renders (process-local; durable identity is
	// the wire record, not these strings).
	Pre  string `json:"pre,omitempty"`
	Post string `json:"post,omitempty"`
	// Warm marks a summary hydrated from the persistent store; Written
	// one produced (or re-produced) by this run.
	Warm    bool `json:"warm,omitempty"`
	Written bool `json:"written,omitempty"`
	// Reads counts the questions this summary answered; Readers the
	// distinct procedures that consumed it (its fan-in).
	Reads   int64 `json:"reads"`
	Readers int   `json:"readers"`
}

// Provenance is a frozen verdict-provenance record.
type Provenance struct {
	// Root is the root query's procedure; Verdict the run's answer.
	Root    string `json:"root"`
	Verdict string `json:"verdict"`
	// Queries counts the query records the run produced.
	Queries int `json:"queries"`
	// Procedures is the verdict's dependency cone: every procedure the
	// answer transitively depends on, sorted. Schedule-invariant across
	// engines (see the package comment).
	Procedures []string `json:"procedures"`
	// Depth is the longest shortest-path (BFS level) from Root inside
	// the cone — how deep the dependency chain behind the verdict runs.
	Depth int `json:"depth"`
	// Deps is the procedure dependency adjacency (proc -> sorted procs
	// it depends on), over every procedure the run touched.
	Deps map[string][]string `json:"deps"`
	// Spawns is the subset of Deps induced by spawn and coalesce edges.
	Spawns map[string][]string `json:"spawns,omitempty"`
	// Summaries lists the distinct summaries read or written, sorted by
	// (proc, kind, pre, post).
	Summaries []SummaryNode `json:"summaries,omitempty"`
	// Aggregate traffic counters (the bolt_prov_* values for this run).
	SummaryReads  int64 `json:"summary_reads"`
	SummaryWrites int64 `json:"summary_writes"`
	ProcReads     int64 `json:"proc_reads"`
	CoalesceReuse int64 `json:"coalesce_reuse"`
	// WarmLoaded counts summaries hydrated from the store; WarmRead the
	// distinct warm summaries the run actually consumed.
	WarmLoaded int `json:"warm_loaded"`
	WarmRead   int `json:"warm_read"`
}

// Finish freezes the fold into a Provenance.
func (f *Fold) Finish(verdict string) *Provenance {
	if f.root != "" {
		f.touch(f.root)
	}
	p := &Provenance{
		Root:          f.root,
		Verdict:       verdict,
		Queries:       len(f.procs),
		Deps:          map[string][]string{},
		Spawns:        map[string][]string{},
		SummaryReads:  f.summaryReads,
		SummaryWrites: f.summaryWrites,
		ProcReads:     f.procReads,
		CoalesceReuse: f.coalesceReuse,
		WarmLoaded:    f.warmLoaded,
	}
	for proc, deps := range f.deps {
		p.Deps[proc] = sortedKeys(deps)
	}
	for proc, kids := range f.spawns {
		p.Spawns[proc] = sortedKeys(kids)
	}
	for _, sr := range f.sums {
		n := SummaryNode{
			Proc:    sr.s.Proc,
			Kind:    sr.s.Kind.String(),
			Warm:    sr.warm,
			Written: sr.written,
			Reads:   sr.reads,
			Readers: len(sr.readers),
		}
		if sr.s.Pre != nil {
			n.Pre = sr.s.Pre.String()
		}
		if sr.s.Post != nil {
			n.Post = sr.s.Post.String()
		}
		p.Summaries = append(p.Summaries, n)
		if sr.reads > 0 && sr.warm {
			p.WarmRead++
		}
	}
	sort.Slice(p.Summaries, func(i, j int) bool { return summaryNodeLess(p.Summaries[i], p.Summaries[j]) })
	p.Procedures, p.Depth = closure(p.Root, p.Deps)
	return p
}

func summaryNodeLess(a, b SummaryNode) bool {
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Pre != b.Pre {
		return a.Pre < b.Pre
	}
	return a.Post < b.Post
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// closure BFSes deps from root, returning the sorted reachable set and
// the maximum BFS level (0 when root has no dependencies). Cycles —
// recursion in the analyzed program — are handled by the visited set.
func closure(root string, deps map[string][]string) ([]string, int) {
	if root == "" {
		return nil, 0
	}
	seen := map[string]bool{root: true}
	frontier := []string{root}
	depth := 0
	for len(frontier) > 0 {
		var next []string
		for _, p := range frontier {
			for _, d := range deps[p] {
				if !seen[d] {
					seen[d] = true
					next = append(next, d)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return sortedKeys(seen), depth
}

// Cone is the invalidation cone of one (edited) procedure: everything
// whose recorded derivation transitively consumed facts about it.
type Cone struct {
	// Proc is the edited procedure the cone is computed for.
	Proc string `json:"proc"`
	// Procedures is the affected set, sorted: Proc itself plus every
	// procedure that transitively depends on it. Summaries for these
	// procedures are the ones an incremental re-check must invalidate.
	Procedures []string `json:"procedures"`
	// Summaries counts recorded summaries whose procedure is affected.
	Summaries int `json:"summaries"`
	// RootAffected reports whether the verdict itself is in the cone —
	// whether an edit to Proc can change the answer at all.
	RootAffected bool `json:"root_affected"`
}

// Cone computes the invalidation cone for an edited procedure: the
// reverse dependency closure of proc over the recorded DAG. A procedure
// the run never touched yields a cone of just itself with no summaries
// (editing it cannot affect the recorded verdict).
func (p *Provenance) Cone(proc string) Cone {
	c := Cone{Proc: proc}
	if p == nil {
		c.Procedures = []string{proc}
		return c
	}
	// Reverse adjacency: dep -> dependents.
	rev := map[string][]string{}
	for from, tos := range p.Deps {
		for _, to := range tos {
			rev[to] = append(rev[to], from)
		}
	}
	seen := map[string]bool{proc: true}
	frontier := []string{proc}
	for len(frontier) > 0 {
		var next []string
		for _, q := range frontier {
			for _, dep := range rev[q] {
				if !seen[dep] {
					seen[dep] = true
					next = append(next, dep)
				}
			}
		}
		frontier = next
	}
	c.Procedures = sortedKeys(seen)
	c.RootAffected = seen[p.Root]
	for _, s := range p.Summaries {
		if seen[s.Proc] {
			c.Summaries++
		}
	}
	return c
}

// ConeSize is one procedure's invalidation-cone size.
type ConeSize struct {
	Proc string `json:"proc"`
	Size int    `json:"size"`
}

// ConeSizes computes the invalidation-cone size (procedure count) of
// every procedure in the verdict cone, sorted by procedure — the
// distribution behind bolt_prov_cone_size and boltprof -prov.
func (p *Provenance) ConeSizes() []ConeSize {
	if p == nil {
		return nil
	}
	out := make([]ConeSize, 0, len(p.Procedures))
	for _, proc := range p.Procedures {
		out = append(out, ConeSize{Proc: proc, Size: len(p.Cone(proc).Procedures)})
	}
	return out
}

// StableBytes renders the schedule-invariant part of the provenance —
// root, verdict, the procedure cone, and its dependency adjacency — as
// canonical JSON. Two engines analyzing the same program must produce
// identical StableBytes regardless of scheduling; prov-smoke enforces
// this across barrier/async/dist.
func (p *Provenance) StableBytes() []byte {
	if p == nil {
		return nil
	}
	cone := map[string]bool{}
	for _, proc := range p.Procedures {
		cone[proc] = true
	}
	deps := map[string][]string{}
	for _, proc := range p.Procedures {
		deps[proc] = append([]string{}, p.Deps[proc]...)
	}
	doc := struct {
		Root       string              `json:"root"`
		Verdict    string              `json:"verdict"`
		Procedures []string            `json:"procedures"`
		Deps       map[string][]string `json:"deps"`
	}{p.Root, p.Verdict, p.Procedures, deps}
	b, err := json.Marshal(doc) // map keys marshal sorted: canonical
	if err != nil {
		return nil
	}
	return b
}

// Verify checks the structural invariants prov-smoke asserts: a
// non-empty cone containing the root, a cone closed under spawn and
// dependency edges, and consistent warm accounting.
func (p *Provenance) Verify() error {
	if p == nil {
		return fmt.Errorf("prov: nil provenance")
	}
	if len(p.Procedures) == 0 {
		return fmt.Errorf("prov: empty verdict cone")
	}
	in := map[string]bool{}
	for _, proc := range p.Procedures {
		in[proc] = true
	}
	if !in[p.Root] {
		return fmt.Errorf("prov: root %q not in its own cone", p.Root)
	}
	for proc, kids := range p.Spawns {
		if !in[proc] {
			continue
		}
		for _, k := range kids {
			if !in[k] {
				return fmt.Errorf("prov: cone not closed under spawn edges: %s -> %s", proc, k)
			}
		}
	}
	for proc, deps := range p.Deps {
		if !in[proc] {
			continue
		}
		for _, d := range deps {
			if !in[d] {
				return fmt.Errorf("prov: cone not closed under dependency edges: %s -> %s", proc, d)
			}
		}
	}
	if p.WarmRead > p.WarmLoaded {
		return fmt.Errorf("prov: warm_read %d > warm_loaded %d", p.WarmRead, p.WarmLoaded)
	}
	return nil
}

// Explain renders the human-readable dependency-cone report behind
// boltcheck -explain.
func (p *Provenance) Explain() string {
	if p == nil {
		return "provenance: not collected (enable with CollectProvenance / -explain)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verdict %s for root %s\n", p.Verdict, p.Root)
	fmt.Fprintf(&b, "dependency cone: %d procedure(s), depth %d, %d query record(s)\n",
		len(p.Procedures), p.Depth, p.Queries)
	for _, proc := range p.Procedures {
		deps := p.Deps[proc]
		if len(deps) == 0 {
			fmt.Fprintf(&b, "  %s\n", proc)
			continue
		}
		fmt.Fprintf(&b, "  %s -> %s\n", proc, strings.Join(deps, " "))
	}
	fresh := 0
	warm := 0
	written := 0
	for _, s := range p.Summaries {
		if s.Written {
			written++
		}
		if s.Reads == 0 {
			continue
		}
		if s.Warm {
			warm++
		} else {
			fresh++
		}
	}
	fmt.Fprintf(&b, "summaries: %d distinct read (%d warm, %d fresh), %d written; %d read(s), %d proc scan(s), %d coalesce reuse\n",
		fresh+warm, warm, fresh, written, p.SummaryReads, p.ProcReads, p.CoalesceReuse)
	fmt.Fprintf(&b, "warm attribution: %d of %d loaded warm summaries read\n", p.WarmRead, p.WarmLoaded)
	if hot := p.Hot(5); len(hot) > 0 {
		fmt.Fprintf(&b, "hot summaries by fan-in:\n")
		for _, s := range hot {
			src := "fresh"
			if s.Warm {
				src = "warm"
			}
			fmt.Fprintf(&b, "  %3dx (%d readers, %s) %s %s: %s => %s\n",
				s.Reads, s.Readers, src, s.Kind, s.Proc, s.Pre, s.Post)
		}
	}
	return b.String()
}

// Hot returns the n summaries with the largest fan-in: the most distinct
// reading procedures, then the most reads, then the canonical node
// order, so the report is deterministic.
func (p *Provenance) Hot(n int) []SummaryNode {
	read := make([]SummaryNode, 0, len(p.Summaries))
	for _, s := range p.Summaries {
		if s.Reads > 0 {
			read = append(read, s)
		}
	}
	sort.Slice(read, func(i, j int) bool {
		if read[i].Readers != read[j].Readers {
			return read[i].Readers > read[j].Readers
		}
		if read[i].Reads != read[j].Reads {
			return read[i].Reads > read[j].Reads
		}
		return summaryNodeLess(read[i], read[j])
	})
	if len(read) > n {
		read = read[:n]
	}
	return read
}

// WriteJSON serializes the provenance as indented JSON — the artifact
// boltcheck -prov-out writes and boltprof -prov analyzes.
func (p *Provenance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON loads a provenance artifact written by WriteJSON.
func ReadJSON(r io.Reader) (*Provenance, error) {
	var p Provenance
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prov: parsing provenance JSON: %w", err)
	}
	return &p, nil
}
