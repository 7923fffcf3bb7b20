// The -prov report: offline analysis of a provenance record written by
// boltcheck -prov-out (or scraped from /debug/bolt/prov). Where -input
// explains where the time went, -prov explains what the verdict rests
// on: the invalidation-cone size distribution (how much re-checking an
// edit to each procedure would trigger) and the hot summaries by
// fan-in (the facts most of the analysis leaned on).

package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/prov"
)

// runProv loads a provenance JSON record and writes the cone/fan-in
// report. Exit codes follow the main command: 0 ok, 2 usage/IO error.
func runProv(path string, w io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	p, err := prov.ReadJSON(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltprof: %s: %v\n", path, err)
		return 2
	}
	if err := writeProvReport(w, p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

// writeProvReport renders the provenance analysis: header, cone-size
// distribution with the largest cones called out, and hot summaries.
func writeProvReport(w io.Writer, p *prov.Provenance) error {
	fmt.Fprintf(w, "provenance: verdict %q for root %s\n", p.Verdict, p.Root)
	fmt.Fprintf(w, "cone: %d procedure(s), depth %d, %d query record(s)\n",
		len(p.Procedures), p.Depth, p.Queries)
	fmt.Fprintf(w, "traffic: %d summary read(s), %d write(s), %d proc scan(s), %d coalesce reuse\n",
		p.SummaryReads, p.SummaryWrites, p.ProcReads, p.CoalesceReuse)
	if p.WarmLoaded > 0 {
		fmt.Fprintf(w, "warm: %d of %d loaded summaries read\n", p.WarmRead, p.WarmLoaded)
	}

	sizes := p.ConeSizes()
	if len(sizes) > 0 {
		vals := make([]int, len(sizes))
		for i, cs := range sizes {
			vals[i] = cs.Size
		}
		sort.Ints(vals)
		fmt.Fprintf(w, "\ninvalidation cones (%d procedures):\n", len(sizes))
		fmt.Fprintf(w, "  size min/median/p90/max: %d / %d / %d / %d\n",
			vals[0], vals[len(vals)/2], vals[(len(vals)*9)/10], vals[len(vals)-1])
		// Largest blast radii first: the procedures whose edit costs the
		// most re-checking.
		bysize := append([]prov.ConeSize(nil), sizes...)
		sort.SliceStable(bysize, func(i, j int) bool {
			if bysize[i].Size != bysize[j].Size {
				return bysize[i].Size > bysize[j].Size
			}
			return bysize[i].Proc < bysize[j].Proc
		})
		top := bysize
		if len(top) > 10 {
			top = top[:10]
		}
		fmt.Fprintf(w, "  largest cones:\n")
		for _, cs := range top {
			c := p.Cone(cs.Proc)
			root := ""
			if c.RootAffected {
				root = "  [verdict affected]"
			}
			fmt.Fprintf(w, "    %-30s %4d procs %4d summaries%s\n",
				cs.Proc, cs.Size, c.Summaries, root)
		}
	}

	if hot := p.Hot(10); len(hot) > 0 {
		fmt.Fprintf(w, "\nhot summaries by fan-in (distinct reading procedures):\n")
		for _, s := range hot {
			fmt.Fprintf(w, "  %3d readers %5d reads  %s [%s] %s => %s\n", s.Readers, s.Reads, s.Proc, s.Kind, s.Pre, s.Post)
		}
	}
	return nil
}
