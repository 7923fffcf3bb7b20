// Package incr implements incremental re-analysis planning: detecting
// which procedures of a program changed since the summaries in a store
// were computed, and deciding which summaries that edit invalidates.
//
// Edit detection is content-based. Snapshot renders every procedure's
// CFG into a canonical text (name, entry/exit, node count, locals, every
// edge with its statement) and hashes it, together with the program's
// global declarations and the wire version, into a store.Fingerprint.
// Each procedure is appended into one buffer, its statements through
// lang's printer and its numbers through strconv; the bytes are those of
// the fmt render every stored manifest was written with, so a store
// outlives the change of renderer. The resulting Manifest is persisted
// beside the summaries (store.Store.PutManifest); Diff of the stored
// manifest against the current program's yields the edited set —
// procedures whose bodies changed, plus additions and removals.
//
// A re-check of an unchanged program pays for reading: the parse of its
// text (one pass, internal/parser), the open of the store (one read of
// the log, every frame and checksum checked, nothing decoded and no
// payload copied), the snapshot, the stored manifest and, of each
// provenance record, its root question, verdict and dependency adjacency
// — never a formula: a provenance record holds none, and when the
// verdict is reused no summary is loaded, nothing is written and nothing
// is synced.
//
// Invalidation is cone-based, at procedure granularity. A summary for
// procedure p may encode facts about everything p transitively calls,
// so an edit to q may invalidate the summaries of every procedure that
// can reach q — the reverse closure of the edited set. PlanInvalidation
// computes that closure over the union of (a) the edited program's
// static call graph and (b) the dependency adjacencies persisted in
// provenance records (which include edges satisfied by stored summaries
// that the static graph of a *previous* program version may have had
// but the current one lacks). The union is conservative: extra edges
// only enlarge the stale set. Soundness of using the *new* program's
// call graph for reachability: if p reached an edited procedure in the
// old program, then on that old path the prefix up to the first edited
// procedure m runs entirely through unedited procedures, whose edges
// are identical in the new program — so p reaches m in the new graph
// too, and p is staled by the closure.
//
// The cone is the most an edit can reach: when one procedure q was
// edited, a re-check first re-proves q's stored not-may summaries on the
// new body, and if they hold and q's transitive Mod set did not grow
// only q is stale (internal/core, DESIGN.md §8.2). CalleeFirst orders
// the writes that keep a store sound for that.
package incr

import (
	"sort"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/store"
	"repro/internal/wire"
)

// Manifest maps each procedure of a program to its content fingerprint.
type Manifest = map[string]store.Fingerprint

// Snapshot fingerprints every procedure of prog: it hashes the
// procedure's canonical render (appendProc), the program's globals (a
// procedure's semantics can depend on the global environment) and the
// wire version. It allocates nothing per edge.
func Snapshot(prog *cfg.Program) Manifest {
	version, globals := strconv.Itoa(wire.Version), lang.FormatVars(prog.Globals)
	m := make(Manifest, len(prog.Procs))
	var buf []byte
	for name, p := range prog.Procs {
		buf = appendProc(buf[:0], p)
		m[name] = store.NewFingerprint("bolt/proc-fp", version, globals, string(buf))
	}
	return m
}

// appendProc renders a procedure deterministically: header, locals, then
// every edge in declaration order with its statement. Any change to the
// procedure's control flow or statements changes the render. The bytes
// are those of the fmt render
//
//	proc %s entry n%d exit n%d nodes %d\n
//	locals %s\n            (when there are locals)
//	n%d -> n%d : %s\n      (one line per edge)
//
// which every stored manifest was written with; they must never change.
func appendProc(b []byte, p *cfg.Proc) []byte {
	b = append(b, "proc "...)
	b = append(b, p.Name...)
	b = cfg.AppendNode(append(b, " entry "...), p.Entry)
	b = cfg.AppendNode(append(b, " exit "...), p.Exit)
	b = strconv.AppendInt(append(b, " nodes "...), int64(p.NNodes), 10)
	b = append(b, '\n')
	if len(p.Locals) > 0 {
		b = append(lang.AppendVars(append(b, "locals "...), p.Locals), '\n')
	}
	for i := range p.Edges {
		e := &p.Edges[i]
		b = cfg.AppendNode(b, e.From)
		b = cfg.AppendNode(append(b, " -> "...), e.To)
		b = append(b, " : "...)
		b = append(lang.AppendStmt(b, e.Stmt), '\n')
	}
	return b
}

// Diff returns the edited procedure set between two manifests, sorted:
// procedures whose fingerprints differ, procedures only in old
// (removed), and procedures only in new (added).
func Diff(old, new Manifest) []string {
	var out []string
	for p, fp := range new {
		if ofp, ok := old[p]; !ok || ofp != fp {
			out = append(out, p)
		}
	}
	for p := range old {
		if _, ok := new[p]; !ok {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Plan is the result of invalidation planning for one edit.
type Plan struct {
	// Edited is the procedures whose content changed (input, sorted).
	Edited []string
	// Stale is the procedures whose summaries must be discarded: the
	// edited set plus every procedure that can reach it in the
	// dependency graph (sorted).
	Stale []string
	// RootAffected reports whether the root procedure is stale — when
	// false, the persisted verdict for the root question is still valid
	// and a re-check may reuse it outright.
	RootAffected bool
}

// PlanInvalidation computes the stale cone of an edit: the reverse
// closure of edited over deps (proc -> procedures it depends on).
// Callers union every dependency source they have — the program's
// static call graph and any persisted provenance adjacencies — before
// calling; see the package comment for why that is sound.
func PlanInvalidation(edited []string, deps map[string][]string, root string) Plan {
	plan := Plan{Edited: append([]string(nil), edited...)}
	sort.Strings(plan.Edited)
	// Reverse adjacency: dep -> procedures that depend on it.
	rev := map[string][]string{}
	for p, ds := range deps {
		for _, d := range ds {
			rev[d] = append(rev[d], p)
		}
	}
	stale := map[string]bool{}
	queue := append([]string(nil), plan.Edited...)
	for _, p := range queue {
		stale[p] = true
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, caller := range rev[p] {
			if !stale[caller] {
				stale[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	plan.Stale = make([]string, 0, len(stale))
	for p := range stale {
		plan.Stale = append(plan.Stale, p)
	}
	sort.Strings(plan.Stale)
	plan.RootAffected = stale[root]
	return plan
}

// MergeDeps unions extra's adjacency into dst (both proc -> deps),
// returning dst. Duplicate edges are dropped; callee lists stay sorted.
func MergeDeps(dst map[string][]string, extra map[string][]string) map[string][]string {
	if dst == nil {
		dst = map[string][]string{}
	}
	for p, ds := range extra {
		if len(ds) == 0 {
			continue
		}
		set := map[string]bool{}
		for _, d := range dst[p] {
			set[d] = true
		}
		for _, d := range ds {
			set[d] = true
		}
		merged := make([]string, 0, len(set))
		for d := range set {
			merged = append(merged, d)
		}
		sort.Strings(merged)
		dst[p] = merged
	}
	return dst
}

// CalleeFirst orders procs so that each comes after every procedure it
// reaches in deps (proc -> procedures it depends on) that does not reach
// it back: a depth-first post-order over the whole of deps, started from
// procs in name order. Within a cycle the order is arbitrary but fixed.
func CalleeFirst(procs []string, deps map[string][]string) []string {
	want := make(map[string]bool, len(procs))
	for _, p := range procs {
		want[p] = true
	}
	roots := append([]string(nil), procs...)
	sort.Strings(roots)
	seen := map[string]bool{}
	out := make([]string, 0, len(procs))
	var visit func(string)
	visit = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, d := range deps[p] {
			visit(d)
		}
		if want[p] {
			out = append(out, p)
		}
	}
	for _, p := range roots {
		visit(p)
	}
	return out
}
