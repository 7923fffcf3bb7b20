// Package maymust instantiates PUNCH with a may-must analysis in the
// style of SYNERGY/DASH (§4 of the paper): an over-approximating region
// graph (may-map Σ plus eliminated abstract edges Ē) is refined by
// preimage splitting, while an under-approximating must-map O of symbolic
// execution states grows toward the error region. Frontiers — abstract
// edges reached but not yet taken by the must side — drive both
// refinement and the creation of child sub-queries at call edges.
package maymust

import (
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/punch"
	"repro/internal/punch/regions"
	"repro/internal/query"
)

// mustElem is one element of the must-map O: a symbolic execution state
// (path condition over symbols, store mapping program variables to linear
// terms over symbols). The set of concrete states it denotes at its node
// is { σ(v) : v ⊨ path }, an under-approximation of the reachable states.
type mustElem struct {
	path  logic.Formula
	store punch.Store
	// pathID is path's interned id, set by addMust.
	pathID logic.ID
	// reach caches the region-membership checks made of the element, in
	// the order they were made: a handful of regions of its node, retired
	// ones included, since a region ID never comes to denote another set.
	reach []membership
	// exitChecked marks exit elements already tested against φ2.
	exitChecked bool
}

// membership is whether a must element meets region ID region.
type membership struct {
	region int32
	in     bool
}

// obj is the verification object O_i stored in the query between PUNCH
// invocations: the complete saved state of the intraprocedural analysis.
type obj struct {
	proc    *cfg.Proc
	globals []lang.Var
	locals  []lang.Var

	// May side: the region graph, built by initialize.
	regions.Hold

	// Must side.
	musts map[cfg.NodeID][]*mustElem
	syms  punch.Syms
	entry map[lang.Var]lang.Var // each variable's entry symbol

	// pointPre caches whether a must summary's precondition denotes a
	// single state: +1 / -1, keyed by the precondition's interned id.
	pointPre map[logic.ID]int8

	initialized bool
}

func newObj(proc *cfg.Proc, globals []lang.Var, q query.ID) *obj {
	return &obj{
		proc:     proc,
		globals:  globals,
		locals:   proc.Locals,
		musts:    map[cfg.NodeID][]*mustElem{},
		syms:     punch.NewSyms("$", q),
		pointPre: map[logic.ID]int8{},
	}
}

// addMust appends a must element at node, respecting the per-node cap and
// skipping structural duplicates: an element with the same path condition
// and the same term for every variable. The cap keeps the scan short.
func (o *obj) addMust(node cfg.NodeID, e *mustElem, cap int) bool {
	if len(o.musts[node]) >= cap {
		return false
	}
	e.pathID = logic.KeyID(e.path)
	for _, d := range o.musts[node] {
		if d.same(e, o) {
			return false
		}
	}
	o.musts[node] = append(o.musts[node], e)
	return true
}

// same reports whether d and e are equal up to structure: the same
// interned path condition, and equal store terms in every variable.
func (d *mustElem) same(e *mustElem, o *obj) bool {
	if d.pathID != e.pathID {
		return false
	}
	for _, vars := range [2][]lang.Var{o.globals, o.locals} {
		for _, v := range vars {
			if !d.store[v].Equal(e.store[v]) {
				return false
			}
		}
	}
	return true
}
