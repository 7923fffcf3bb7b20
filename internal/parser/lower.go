package parser

import (
	"fmt"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/lang"
)

// ErrVar is the implicit global error flag used by the assert/abort
// encoding. It is added to the program's globals when any procedure
// asserts or aborts, set to 0 at the entry of main, set to 1 on a failing
// assertion, and checked after every call so errors propagate to the
// caller's exit immediately (the SDV harness behaviour).
const ErrVar = lang.Var("__err")

// The statements of the error encoding, built once: a statement is an
// immutable value, so every edge they label shares one.
var (
	errReset  lang.Stmt = lang.Assign{Lhs: ErrVar, Rhs: lang.C(0)}
	errSet    lang.Stmt = lang.Assign{Lhs: ErrVar, Rhs: lang.C(1)}
	errRaised lang.Stmt = lang.Assume{Cond: lang.CmpE(lang.V(string(ErrVar)), lang.Ge, lang.C(1))}
	errClear  lang.Stmt = lang.Assume{Cond: lang.CmpE(lang.V(string(ErrVar)), lang.Le, lang.C(0))}
)

// Parse parses src into a validated program. The entry procedure is
// main, or the first procedure in the file when there is no main.
func Parse(src string) (*cfg.Program, error) {
	p := newParser(src)
	ast, err := p.parseProgram()
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return lowerProgram(ast)
}

// MustParse is Parse that panics on error, for tests and generators.
func MustParse(src string) *cfg.Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// sig records a procedure's calling-convention needs and the names of
// its convention globals.
type sig struct {
	params   []lang.Var
	needsRet bool
	args     []lang.Var // argVar(proc, i) for each parameter
	ret      lang.Var   // retVar(proc), when needsRet
	call     lang.Stmt  // the call of proc
}

// argVar and retVar name the auto-declared globals implementing the
// parameter/return sugar for procedure proc. The "__" names cannot clash
// with user identifiers that also survive cycle validation.
func argVar(proc string, i int) lang.Var { return lang.Var(proc + "__arg" + strconv.Itoa(i)) }
func retVar(proc string) lang.Var        { return lang.Var(proc + "__ret") }

func lowerProgram(ast *programAST) (*cfg.Program, error) {
	usesErr := false
	for _, proc := range ast.procs {
		if stmtsUseErr(proc.body) {
			usesErr = true
			break
		}
	}
	globals := ast.globals
	if usesErr {
		globals = append(append([]lang.Var{}, globals...), ErrVar)
	}

	// Collect calling-convention signatures: parameters from definitions,
	// return needs from `return e;` bodies and `x = f(...)` call sites.
	sigs := make(map[string]*sig, len(ast.procs))
	all := make([]sig, len(ast.procs))
	for i, proc := range ast.procs {
		all[i].params = proc.params
		sigs[proc.name] = &all[i]
	}
	var scanRet func(stmts []stmtNode, self string)
	scanRet = func(stmts []stmtNode, self string) {
		for _, st := range stmts {
			switch st := st.(type) {
			case returnNode:
				if st.e != nil {
					sigs[self].needsRet = true
				}
			case callAssignNode:
				if sg, ok := sigs[st.proc]; ok {
					sg.needsRet = true
				}
			case ifNode:
				scanRet(st.then, self)
				scanRet(st.els, self)
			case whileNode:
				scanRet(st.body, self)
			}
		}
	}
	for _, proc := range ast.procs {
		scanRet(proc.body, proc.name)
	}
	// Declare the convention globals and check arities plus the
	// no-recursion restriction for sugared procedures (their argument
	// globals are not reentrant).
	sugared := map[string]bool{}
	for _, proc := range ast.procs {
		sg := sigs[proc.name]
		if len(sg.params) > 0 || sg.needsRet {
			sugared[proc.name] = true
		}
		sg.args = make([]lang.Var, len(sg.params))
		for i := range sg.params {
			sg.args[i] = argVar(proc.name, i)
		}
		globals = append(globals, sg.args...)
		if sg.needsRet {
			sg.ret = retVar(proc.name)
			globals = append(globals, sg.ret)
		}
		sg.call = lang.Call{Proc: proc.name}
	}
	if err := checkCallArities(ast, sigs); err != nil {
		return nil, err
	}
	if len(sugared) > 0 {
		if cyc := findCycleWith(ast, sugared); cyc != "" {
			return nil, fmt.Errorf("parser: procedure %q with parameters/return participates in recursion, which the calling-convention sugar cannot support", cyc)
		}
	}

	main := ast.procs[0].name
	for _, proc := range ast.procs {
		if proc.name == "main" {
			main = "main"
		}
	}

	procs := make([]*cfg.Proc, 0, len(ast.procs))
	for _, procAst := range ast.procs {
		locals := procAst.locals // the tree is the lowering's to consume
		if len(procAst.params) > 0 {
			locals = append(append([]lang.Var{}, procAst.params...), procAst.locals...)
		}
		lw := &lowerer{
			b:         cfg.NewProc(procAst.name, locals...),
			errChecks: usesErr,
			usesErr:   usesErr,
			self:      sigs[procAst.name],
			sigs:      sigs,
		}
		isMain := procAst.name == main && usesErr
		edges := len(procAst.params) + lw.edges(procAst.body) + 1
		if isMain {
			edges++
		}
		lw.b.Grow(edges)
		lw.exit = lw.b.NewNode()
		cur := lw.b.Entry()
		if isMain {
			next := lw.b.NewNode()
			lw.b.AddEdge(cur, next, errReset)
			cur = next
		}
		// Parameter prologue: copy argument globals into the parameters.
		for i, param := range procAst.params {
			next := lw.b.NewNode()
			lw.b.AddEdge(cur, next, lang.Assign{Lhs: param, Rhs: lang.Ref{V: argVar(procAst.name, i)}})
			cur = next
		}
		end := lw.lowerStmts(cur, procAst.body)
		lw.b.AddEdge(end, lw.exit, lang.Skip{})
		procs = append(procs, lw.b.Finish(lw.exit))
	}
	return cfg.NewProgram(ast.name, globals, main, procs...)
}

// checkCallArities validates every call site against its definition.
func checkCallArities(ast *programAST, sigs map[string]*sig) error {
	var walk func(stmts []stmtNode) error
	walk = func(stmts []stmtNode) error {
		for _, st := range stmts {
			switch st := st.(type) {
			case callNode:
				if sg, ok := sigs[st.proc]; ok && len(st.args) != len(sg.params) {
					return fmt.Errorf("parser: call to %s with %d arguments, want %d", st.proc, len(st.args), len(sg.params))
				}
			case callAssignNode:
				if sg, ok := sigs[st.proc]; ok && len(st.args) != len(sg.params) {
					return fmt.Errorf("parser: call to %s with %d arguments, want %d", st.proc, len(st.args), len(sg.params))
				}
			case ifNode:
				if err := walk(st.then); err != nil {
					return err
				}
				if err := walk(st.els); err != nil {
					return err
				}
			case whileNode:
				if err := walk(st.body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, proc := range ast.procs {
		if err := walk(proc.body); err != nil {
			return err
		}
	}
	return nil
}

// findCycleWith returns the name of a sugared procedure on a call-graph
// cycle, or "" when none exists.
func findCycleWith(ast *programAST, sugared map[string]bool) string {
	edges := map[string][]string{}
	var collect func(self string, stmts []stmtNode)
	collect = func(self string, stmts []stmtNode) {
		for _, st := range stmts {
			switch st := st.(type) {
			case callNode:
				edges[self] = append(edges[self], st.proc)
			case callAssignNode:
				edges[self] = append(edges[self], st.proc)
			case ifNode:
				collect(self, st.then)
				collect(self, st.els)
			case whileNode:
				collect(self, st.body)
			}
		}
	}
	for _, proc := range ast.procs {
		collect(proc.name, proc.body)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var offender string
	var dfs func(n string, onStack []string) bool
	dfs = func(n string, onStack []string) bool {
		color[n] = gray
		for _, m := range edges[n] {
			switch color[m] {
			case gray:
				// Cycle m → … → n → m; report a sugared member.
				cycle := append(onStack, n, m)
				for _, c := range cycle {
					if sugared[c] {
						offender = c
						return true
					}
				}
			case white:
				if dfs(m, append(onStack, n)) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, proc := range ast.procs {
		if color[proc.name] == white && dfs(proc.name, nil) {
			return offender
		}
	}
	return ""
}

func stmtsUseErr(stmts []stmtNode) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case assertNode, abortNode:
			return true
		case ifNode:
			if stmtsUseErr(s.then) || stmtsUseErr(s.els) {
				return true
			}
		case whileNode:
			if stmtsUseErr(s.body) {
				return true
			}
		}
	}
	return false
}

type lowerer struct {
	b         *cfg.Builder
	exit      cfg.NodeID
	errChecks bool
	usesErr   bool
	self      *sig
	sigs      map[string]*sig
}

// edges counts the edges lowerStmts gives stmts. It follows lowerStmt
// case by case; the differential tests hold every lowered procedure to
// filling exactly the room this count made.
func (lw *lowerer) edges(stmts []stmtNode) int {
	n := 0
	for _, s := range stmts {
		switch s := s.(type) {
		case lang.Assign, lang.Havoc, lang.Assume, abortNode:
			n++
		case callNode:
			n += lw.callEdges(len(s.args))
		case callAssignNode:
			n += lw.callEdges(len(s.args)) + 1
		case returnNode:
			n++
			if s.e != nil {
				n++
			}
		case assertNode:
			n += 3
		case ifNode:
			n += 3 + lw.edges(s.then) + lw.edges(s.els)
			if len(s.els) > 0 {
				n++
			}
		case whileNode:
			n += 4 + lw.edges(s.body)
		}
	}
	return n
}

func (lw *lowerer) callEdges(args int) int {
	if lw.errChecks {
		return args + 3
	}
	return args + 1
}

func (lw *lowerer) lowerStmts(cur cfg.NodeID, stmts []stmtNode) cfg.NodeID {
	for _, s := range stmts {
		cur = lw.lowerStmt(cur, s)
	}
	return cur
}

func (lw *lowerer) lowerStmt(cur cfg.NodeID, s stmtNode) cfg.NodeID {
	b := lw.b
	switch s := s.(type) {
	case lang.Assign, lang.Havoc, lang.Assume:
		next := b.NewNode()
		b.AddEdge(cur, next, s.(lang.Stmt))
		return next
	case skipNode:
		return cur
	case callNode:
		return lw.lowerCall(cur, s.proc, s.args, nil)
	case callAssignNode:
		lhs := s.lhs
		return lw.lowerCall(cur, s.proc, s.args, &lhs)
	case returnNode:
		if s.e != nil {
			mid := b.NewNode()
			b.AddEdge(cur, mid, lang.Assign{Lhs: lw.self.ret, Rhs: s.e})
			cur = mid
		}
		b.AddEdge(cur, lw.exit, lang.Skip{})
		// Continuation is unreachable.
		return b.NewNode()
	case assertNode:
		fail := b.NewNode()
		next := b.NewNode()
		b.AddEdge(cur, fail, lang.Assume{Cond: lang.NotE(s.b)})
		b.AddEdge(fail, lw.exit, errSet)
		b.AddEdge(cur, next, lang.Assume{Cond: s.b})
		return next
	case abortNode:
		b.AddEdge(cur, lw.exit, errSet)
		// Continuation is unreachable; give it a fresh node so following
		// statements lower without connecting back.
		return b.NewNode()
	case ifNode:
		thenStart := b.NewNode()
		b.AddEdge(cur, thenStart, lang.Assume{Cond: s.cond})
		thenEnd := lw.lowerStmts(thenStart, s.then)
		join := b.NewNode()
		b.AddEdge(thenEnd, join, lang.Skip{})
		if len(s.els) == 0 {
			b.AddEdge(cur, join, lang.Assume{Cond: lang.NotE(s.cond)})
		} else {
			elseStart := b.NewNode()
			b.AddEdge(cur, elseStart, lang.Assume{Cond: lang.NotE(s.cond)})
			elseEnd := lw.lowerStmts(elseStart, s.els)
			b.AddEdge(elseEnd, join, lang.Skip{})
		}
		return join
	case whileNode:
		head := b.NewNode()
		b.AddEdge(cur, head, lang.Skip{})
		bodyStart := b.NewNode()
		b.AddEdge(head, bodyStart, lang.Assume{Cond: s.cond})
		bodyEnd := lw.lowerStmts(bodyStart, s.body)
		b.AddEdge(bodyEnd, head, lang.Skip{})
		after := b.NewNode()
		b.AddEdge(head, after, lang.Assume{Cond: lang.NotE(s.cond)})
		return after
	default:
		panic(fmt.Sprintf("parser: unknown stmtNode %T", s))
	}
}

// lowerCall emits argument marshalling, the call edge, the error check,
// and the optional return-value read.
func (lw *lowerer) lowerCall(cur cfg.NodeID, proc string, args []lang.IntExpr, assignTo *lang.Var) cfg.NodeID {
	b := lw.b
	callee := lw.sigs[proc]
	for i, a := range args {
		next := b.NewNode()
		v := argVar(proc, i) // a callee that is not defined has no sig; Validate reports it
		if callee != nil {
			v = callee.args[i]
		}
		b.AddEdge(cur, next, lang.Assign{Lhs: v, Rhs: a})
		cur = next
	}
	after := b.NewNode()
	if callee != nil {
		b.AddEdge(cur, after, callee.call)
	} else {
		b.AddEdge(cur, after, lang.Call{Proc: proc})
	}
	cur = after
	if lw.errChecks {
		next := b.NewNode()
		b.AddEdge(cur, lw.exit, errRaised)
		b.AddEdge(cur, next, errClear)
		cur = next
	}
	if assignTo != nil {
		next := b.NewNode()
		ret := retVar(proc)
		if callee != nil {
			ret = callee.ret
		}
		b.AddEdge(cur, next, lang.Assign{Lhs: *assignTo, Rhs: lang.Ref{V: ret}})
		cur = next
	}
	return cur
}

// ParseBoolExpr parses a standalone boolean expression (for building
// reachability questions programmatically).
func ParseBoolExpr(src string) (lang.BoolExpr, error) {
	p := newParser(src)
	b, err := p.parseBool()
	if err == nil && p.cur().kind != tokEOF {
		err = p.errorf("unexpected trailing input %s", p.cur())
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return b, nil
}
