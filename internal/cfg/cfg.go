// Package cfg represents programs as the paper's §3.1 model: a program is
// a set of procedures, each a control-flow graph whose edges are labelled
// with simple statements or parameterless calls; procedures communicate
// through shared global variables.
package cfg

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/lang"
)

// NodeID identifies a control location within a procedure.
type NodeID int

// Edge is a labelled control-flow edge.
type Edge struct {
	From, To NodeID
	Stmt     lang.Stmt
	// StmtID identifies the content of Stmt within the program: NewProgram
	// gives every distinct statement one id (from 1), whichever edges and
	// procedures it labels. Results that depend on a statement only
	// through its meaning are keyed on it. 0: not part of a program yet.
	StmtID uint32
}

// Proc is a procedure: a CFG with entry and exit locations. The exit
// location has no outgoing edges (enforced by Validate).
type Proc struct {
	Name   string
	Locals []lang.Var
	NNodes int
	Entry  NodeID
	Exit   NodeID
	Edges  []Edge
	// Out[n] and In[n] list indices into Edges.
	Out [][]int
	In  [][]int
}

// Program is a set of procedures with shared globals and a designated main
// procedure.
type Program struct {
	Name    string
	Globals []lang.Var
	Procs   map[string]*Proc
	Main    string
}

// Proc returns the named procedure or nil.
func (p *Program) Proc(name string) *Proc {
	return p.Procs[name]
}

// ProcNames returns the procedure names in sorted order.
func (p *Program) ProcNames() []string {
	out := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Vars returns all variables visible in proc (globals plus its locals).
func (p *Program) Vars(proc *Proc) []lang.Var {
	out := make([]lang.Var, 0, len(p.Globals)+len(proc.Locals))
	out = append(out, p.Globals...)
	out = append(out, proc.Locals...)
	return out
}

// CallGraph returns, for every procedure, the sorted set of procedures it
// calls.
func (p *Program) CallGraph() map[string][]string {
	out := make(map[string][]string, len(p.Procs))
	for name, proc := range p.Procs {
		set := map[string]bool{}
		for _, e := range proc.Edges {
			if c, ok := e.Stmt.(lang.Call); ok {
				set[c.Proc] = true
			}
		}
		callees := make([]string, 0, len(set))
		for c := range set {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		out[name] = callees
	}
	return out
}

// Validate checks the structural invariants of the §3.1 program model.
// It checks a statement once per procedure by its Edge.StmtID, which
// must name the statement's content, as NewProgram numbers it.
func (p *Program) Validate() error {
	if p.Main == "" {
		return fmt.Errorf("cfg: program %q has no main procedure", p.Name)
	}
	if p.Procs[p.Main] == nil {
		return fmt.Errorf("cfg: main procedure %q not defined", p.Main)
	}
	declared := map[lang.Var]bool{}
	for _, g := range p.Globals {
		if declared[g] {
			return fmt.Errorf("cfg: duplicate global %q", g)
		}
		declared[g] = true
	}
	var used []lang.Var // the variables of one statement
	// A statement is checked at the first edge it labels in a procedure,
	// so an error names the edge a check of every edge would name.
	// checked[id] is the index+1 of the procedure it was last checked in,
	// or -1 once it is known to hold in every procedure: it reads and
	// writes globals only and calls a procedure that exists.
	var top uint32
	for _, proc := range p.Procs {
		for i := range proc.Edges {
			top = max(top, proc.Edges[i].StmtID)
		}
	}
	checked := make([]int32, top+1)
	for pi, name := range p.ProcNames() {
		proc := p.Procs[name]
		if proc.Name != name {
			return fmt.Errorf("cfg: procedure map key %q does not match name %q", name, proc.Name)
		}
		locals := make(map[lang.Var]bool, len(proc.Locals))
		for _, l := range proc.Locals {
			if declared[l] || locals[l] {
				return fmt.Errorf("cfg: %s: variable %q shadows a global or duplicates a local", name, l)
			}
			locals[l] = true
		}
		if proc.Entry < 0 || int(proc.Entry) >= proc.NNodes {
			return fmt.Errorf("cfg: %s: entry node %d out of range", name, proc.Entry)
		}
		if proc.Exit < 0 || int(proc.Exit) >= proc.NNodes {
			return fmt.Errorf("cfg: %s: exit node %d out of range", name, proc.Exit)
		}
		for i, e := range proc.Edges {
			if e.From < 0 || int(e.From) >= proc.NNodes || e.To < 0 || int(e.To) >= proc.NNodes {
				return fmt.Errorf("cfg: %s: edge %d endpoints out of range", name, i)
			}
			if e.From == proc.Exit {
				return fmt.Errorf("cfg: %s: edge %d leaves the exit node", name, i)
			}
			if c := checked[e.StmtID]; e.StmtID > 0 && (c == -1 || c == int32(pi+1)) {
				continue
			}
			used = lang.VarsOfStmt(e.Stmt, used[:0])
			global := true
			for _, v := range used {
				if declared[v] {
					continue
				}
				if !locals[v] {
					return fmt.Errorf("cfg: %s: edge %d uses undeclared variable %q", name, i, v)
				}
				global = false
			}
			if c, ok := e.Stmt.(lang.Call); ok {
				if p.Procs[c.Proc] == nil {
					return fmt.Errorf("cfg: %s: edge %d calls undefined procedure %q", name, i, c.Proc)
				}
			}
			checked[e.StmtID] = int32(pi + 1)
			if global {
				checked[e.StmtID] = -1
			}
		}
		if len(proc.Out) != proc.NNodes || len(proc.In) != proc.NNodes {
			return fmt.Errorf("cfg: %s: adjacency not built (call Finish)", name)
		}
	}
	return nil
}

// String renders the program in a readable edge-list form:
//
//	program %s\nglobals %s\n
//	proc %s (entry n%d, exit n%d[, locals %s])\n     (per procedure, by name)
//	  n%d -> n%d : %s\n                              (per edge)
//
// appended through lang's printer and strconv; a non-incremental store's
// fingerprint hashes these bytes, so they must never change.
func (p *Program) String() string {
	b := make([]byte, 0, 4096)
	b = append(b, "program "...)
	b = append(b, p.Name...)
	b = lang.AppendVars(append(b, "\nglobals "...), p.Globals)
	b = append(b, '\n')
	for _, name := range p.ProcNames() {
		proc := p.Procs[name]
		b = append(b, "proc "...)
		b = append(b, name...)
		b = AppendNode(append(b, " (entry "...), proc.Entry)
		b = AppendNode(append(b, ", exit "...), proc.Exit)
		if len(proc.Locals) > 0 {
			b = lang.AppendVars(append(b, ", locals "...), proc.Locals)
		}
		b = append(b, ")\n"...)
		for i := range proc.Edges {
			e := &proc.Edges[i]
			b = AppendNode(append(b, "  "...), e.From)
			b = AppendNode(append(b, " -> "...), e.To)
			b = lang.AppendStmt(append(b, " : "...), e.Stmt)
			b = append(b, '\n')
		}
	}
	return string(b)
}

// AppendNode appends n as "n<id>".
func AppendNode(b []byte, n NodeID) []byte {
	return strconv.AppendInt(append(b, 'n'), int64(n), 10)
}

// Builder incrementally constructs a procedure.
type Builder struct {
	proc *Proc
}

// NewProc starts building a procedure. The entry node is created
// immediately; the exit node is fixed by Finish.
func NewProc(name string, locals ...lang.Var) *Builder {
	b := &Builder{proc: &Proc{Name: name, Locals: locals}}
	b.proc.Entry = b.NewNode()
	return b
}

// NewNode allocates a fresh control location.
func (b *Builder) NewNode() NodeID {
	id := NodeID(b.proc.NNodes)
	b.proc.NNodes++
	return id
}

// AddEdge adds an edge labelled with stmt.
func (b *Builder) AddEdge(from, to NodeID, stmt lang.Stmt) {
	b.proc.Edges = append(b.proc.Edges, Edge{From: from, To: to, Stmt: stmt})
}

// Grow makes room for exactly n more edges, so that adding them
// allocates nothing and adding no more leaves no spare capacity.
func (b *Builder) Grow(n int) {
	edges := make([]Edge, len(b.proc.Edges), len(b.proc.Edges)+n)
	copy(edges, b.proc.Edges)
	b.proc.Edges = edges
}

// Entry returns the entry node.
func (b *Builder) Entry() NodeID { return b.proc.Entry }

// Finish declares exit as the exit node, builds adjacency lists, and
// returns the procedure. Out and In are carved from one array of edge
// indices, each list capped at its length, so an append to one never
// writes into the next; a node without edges has nil lists.
func (b *Builder) Finish(exit NodeID) *Proc {
	p := b.proc
	p.Exit = exit
	n := p.NNodes
	lists := make([][]int, 2*n)
	p.Out, p.In = lists[:n:n], lists[n:]
	var small [256]int32
	deg := small[:0]
	if 2*n <= len(small) {
		deg = small[:2*n]
	} else {
		deg = make([]int32, 2*n)
	}
	for _, e := range p.Edges {
		deg[e.From]++
		deg[n+int(e.To)]++
	}
	idx := make([]int, 2*len(p.Edges))
	off := 0
	for k, d := range deg {
		if d > 0 {
			lists[k] = idx[off : off : off+int(d)]
			off += int(d)
		}
	}
	for i, e := range p.Edges {
		p.Out[e.From] = append(p.Out[e.From], i)
		p.In[e.To] = append(p.In[e.To], i)
	}
	return p
}

// NewProgram assembles procedures into a validated program.
func NewProgram(name string, globals []lang.Var, main string, procs ...*Proc) (*Program, error) {
	prog := &Program{Name: name, Globals: globals, Main: main, Procs: make(map[string]*Proc, len(procs))}
	for _, p := range procs {
		if prog.Procs[p.Name] != nil {
			return nil, fmt.Errorf("cfg: duplicate procedure %q", p.Name)
		}
		prog.Procs[p.Name] = p
	}
	var small [64]stmtSlot // room for the few dozen statements of a driver
	ids := stmtIDs{slots: small[:]}
	for _, p := range procs {
		for i := range p.Edges {
			e := &p.Edges[i]
			e.StmtID = ids.of(e.Stmt)
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// stmtIDs numbers statements by content, from 1 in order of first
// appearance: an open-addressing table keyed by a hash of the
// statement's tree (hashStmt), equal content decided by ==.
type stmtIDs struct {
	slots []stmtSlot // a power of two long, at most three quarters full
	n     uint32
}

type stmtSlot struct {
	h  uint32
	id uint32 // 0: empty
	s  lang.Stmt
}

func (t *stmtIDs) of(s lang.Stmt) uint32 {
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.grow()
	}
	h := hashStmt(s)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.id == 0 {
			t.n++
			*sl = stmtSlot{h: h, id: t.n, s: s}
			return t.n
		}
		if sl.h == h && sl.s == s {
			return sl.id
		}
	}
}

func (t *stmtIDs) grow() {
	old := t.slots
	t.slots = make([]stmtSlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, sl := range old {
		if sl.id == 0 {
			continue
		}
		i := sl.h & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = sl
	}
}

// hashStmt hashes a statement's tree: its kinds, operators, constants
// and names. Statements that are == hash equally.
func hashStmt(s lang.Stmt) uint32 {
	h := uint64(14695981039346656037)
	switch s := s.(type) {
	case lang.Assign:
		h = hashInt(hashString(mix(h, 1), string(s.Lhs)), s.Rhs)
	case lang.Assume:
		h = hashBool(mix(h, 2), s.Cond)
	case lang.Havoc:
		h = hashString(mix(h, 3), string(s.V))
	case lang.Call:
		h = hashString(mix(h, 4), s.Proc)
	case lang.Skip:
		h = mix(h, 5)
	}
	return uint32(h ^ h>>32)
}

func hashInt(h uint64, e lang.IntExpr) uint64 {
	switch e := e.(type) {
	case lang.Const:
		return mix(mix(h, 11), uint64(e.Val))
	case lang.Ref:
		return hashString(mix(h, 12), string(e.V))
	case lang.Add:
		return hashInt(hashInt(mix(h, 13), e.X), e.Y)
	case lang.Sub:
		return hashInt(hashInt(mix(h, 14), e.X), e.Y)
	case lang.Neg:
		return hashInt(mix(h, 15), e.X)
	case lang.Mul:
		return hashInt(mix(mix(h, 16), uint64(e.K)), e.X)
	}
	return mix(h, 10)
}

func hashBool(h uint64, e lang.BoolExpr) uint64 {
	switch e := e.(type) {
	case lang.BoolConst:
		if e.Val {
			return mix(h, 21)
		}
		return mix(h, 22)
	case lang.Cmp:
		return hashInt(hashInt(mix(mix(h, 23), uint64(e.Op)), e.X), e.Y)
	case lang.And:
		return hashBool(hashBool(mix(h, 24), e.X), e.Y)
	case lang.Or:
		return hashBool(hashBool(mix(h, 25), e.X), e.Y)
	case lang.Not:
		return hashBool(mix(h, 26), e.X)
	}
	return mix(h, 20)
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix(h, uint64(len(s)))
}

// mix folds x into h (FNV-1a over a word, with a final xorshift so the
// low bits the table indexes by depend on every input bit).
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 1099511628211
	return h ^ h>>29
}

// MustProgram is NewProgram that panics on error, for tests and
// generators with known-good structure.
func MustProgram(name string, globals []lang.Var, main string, procs ...*Proc) *Program {
	prog, err := NewProgram(name, globals, main, procs...)
	if err != nil {
		panic(err)
	}
	return prog
}
