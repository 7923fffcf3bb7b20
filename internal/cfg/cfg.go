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
	for _, name := range p.ProcNames() {
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
			used = lang.VarsOfStmt(e.Stmt, used[:0])
			for _, v := range used {
				if !declared[v] && !locals[v] {
					return fmt.Errorf("cfg: %s: edge %d uses undeclared variable %q", name, i, v)
				}
			}
			if c, ok := e.Stmt.(lang.Call); ok {
				if p.Procs[c.Proc] == nil {
					return fmt.Errorf("cfg: %s: edge %d calls undefined procedure %q", name, i, c.Proc)
				}
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
// Each distinct statement is rendered once and the rest is framed with
// strconv; a non-incremental store's fingerprint hashes these bytes, so
// they must never change.
func (p *Program) String() string {
	stmts := NewStmtText(p)
	b := make([]byte, 0, 4096)
	b = append(b, "program "...)
	b = append(b, p.Name...)
	b = append(b, "\nglobals "...)
	b = append(b, lang.FormatVars(p.Globals)...)
	b = append(b, '\n')
	for _, name := range p.ProcNames() {
		proc := p.Procs[name]
		b = append(b, "proc "...)
		b = append(b, name...)
		b = AppendNode(append(b, " (entry "...), proc.Entry)
		b = AppendNode(append(b, ", exit "...), proc.Exit)
		if len(proc.Locals) > 0 {
			b = append(b, ", locals "...)
			b = append(b, lang.FormatVars(proc.Locals)...)
		}
		b = append(b, ")\n"...)
		for i := range proc.Edges {
			e := &proc.Edges[i]
			b = AppendNode(append(b, "  "...), e.From)
			b = AppendNode(append(b, " -> "...), e.To)
			b = append(b, " : "...)
			b = append(b, stmts.Of(e)...)
			b = append(b, '\n')
		}
	}
	return string(b)
}

// AppendNode appends n as "n<id>".
func AppendNode(b []byte, n NodeID) []byte {
	return strconv.AppendInt(append(b, 'n'), int64(n), 10)
}

// StmtText holds the render of each distinct statement of a program,
// indexed by Edge.StmtID and filled on first use: a driver labels
// hundreds of edges with a few dozen distinct statements.
type StmtText []string

// NewStmtText returns an empty render table for p's statements.
func NewStmtText(p *Program) StmtText {
	var top uint32
	for _, proc := range p.Procs {
		for i := range proc.Edges {
			top = max(top, proc.Edges[i].StmtID)
		}
	}
	return make(StmtText, top+1)
}

// Of returns the render of e's statement. An edge outside a program
// (StmtID 0) is rendered on the spot.
func (t StmtText) Of(e *Edge) string {
	id := e.StmtID
	if id == 0 || int(id) >= len(t) {
		return e.Stmt.String()
	}
	if t[id] == "" {
		t[id] = e.Stmt.String()
	}
	return t[id]
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

// Entry returns the entry node.
func (b *Builder) Entry() NodeID { return b.proc.Entry }

// Finish declares exit as the exit node, builds adjacency lists, and
// returns the procedure.
func (b *Builder) Finish(exit NodeID) *Proc {
	p := b.proc
	p.Exit = exit
	p.Out = make([][]int, p.NNodes)
	p.In = make([][]int, p.NNodes)
	for i, e := range p.Edges {
		p.Out[e.From] = append(p.Out[e.From], i)
		p.In[e.To] = append(p.In[e.To], i)
	}
	return p
}

// NewProgram assembles procedures into a validated program.
func NewProgram(name string, globals []lang.Var, main string, procs ...*Proc) (*Program, error) {
	prog := &Program{Name: name, Globals: globals, Main: main, Procs: map[string]*Proc{}}
	for _, p := range procs {
		if prog.Procs[p.Name] != nil {
			return nil, fmt.Errorf("cfg: duplicate procedure %q", p.Name)
		}
		prog.Procs[p.Name] = p
	}
	// Statements are comparable values, so a map finds equal content. It
	// starts with room for the few dozen distinct statements of a driver:
	// growing rehashes every key through its interface, a third of the
	// cost of the numbering.
	ids := make(map[lang.Stmt]uint32, 32)
	for _, p := range procs {
		for i := range p.Edges {
			e := &p.Edges[i]
			id, ok := ids[e.Stmt]
			if !ok {
				id = uint32(len(ids) + 1)
				ids[e.Stmt] = id
			}
			e.StmtID = id
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
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
