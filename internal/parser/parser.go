package parser

import (
	"fmt"
	"slices"

	"repro/internal/lang"
)

// Statement-level AST produced by the parser, lowered to a CFG
// afterwards. A statement that lowers to one edge labelled with itself —
// an assignment, a havoc, an assume — is that lang.Stmt, built once;
// every other statement is one of the node types below.
type stmtNode any

type callNode struct {
	proc string
	args []lang.IntExpr
}
type callAssignNode struct {
	lhs  lang.Var
	proc string
	args []lang.IntExpr
}
type returnNode struct{ e lang.IntExpr }
type skipNode struct{}
type assertNode struct{ b lang.BoolExpr }
type abortNode struct{}
type ifNode struct {
	cond      lang.BoolExpr
	then, els []stmtNode
}
type whileNode struct {
	cond lang.BoolExpr
	body []stmtNode
}

type procAST struct {
	name   string
	params []lang.Var
	locals []lang.Var
	body   []stmtNode
}

type programAST struct {
	name    string
	globals []lang.Var
	procs   []procAST
}

// parser reads tokens from its lexer as it goes: tok is the current one,
// ahead the one after it once peek has read it.
type parser struct {
	lx    lexer
	tok   token
	ahead token
	have  bool       // ahead is read
	stack []stmtNode // the statements of the blocks being parsed
}

func newParser(src string) *parser {
	p := &parser{lx: newLexer(src)}
	p.lx.scan(&p.tok)
	return p
}

func (p *parser) cur() token { return p.tok }

func (p *parser) advance() {
	if p.have {
		p.tok, p.have = p.ahead, false
		return
	}
	p.lx.scan(&p.tok)
}

// peek returns the token after the current one.
func (p *parser) peek() token {
	if !p.have {
		p.lx.scan(&p.ahead)
		p.have = true
	}
	return p.ahead
}

func (p *parser) at(kind tokenKind, text string) bool {
	return p.tok.kind == kind && p.tok.text == text
}

// mark and rewind return the parser to a token it has passed; the lexer
// scans the same tokens again. A lexical error met in between stays
// the error of the parse.
type mark struct {
	tok, ahead token
	have       bool
	pos        int
	line, col  int32
}

func (p *parser) mark() mark {
	return mark{p.tok, p.ahead, p.have, p.lx.pos, p.lx.line, p.lx.col}
}

func (p *parser) rewind(m mark) {
	p.tok, p.ahead, p.have = m.tok, m.ahead, m.have
	p.lx.pos, p.lx.line, p.lx.col = m.pos, m.line, m.col
}

// finish settles the error of a parse that returned err: the first
// lexical error in the source, wherever the parser stopped, else err.
func (p *parser) finish(err error) error {
	if err != nil {
		var t token
		for p.lx.err == nil && p.lx.pos < len(p.lx.src) {
			p.lx.scan(&t)
		}
	}
	if p.lx.err != nil {
		return p.lx.err
	}
	return err
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Line: int(p.tok.line), Col: int(p.tok.col), Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind, text string) error {
	if !p.at(kind, text) {
		return p.errorf("expected %q, found %s", text, p.cur())
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseProgram() (*programAST, error) {
	prog := &programAST{name: "program"}
	if p.at(tokKeyword, "program") {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		prog.name = name
		if err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if p.at(tokKeyword, "globals") {
		p.advance()
		vars, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		prog.globals = vars
		if err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
	}
	for !p.at(tokEOF, "") && p.cur().kind != tokEOF {
		proc, err := p.parseProc()
		if err != nil {
			return nil, err
		}
		prog.procs = append(prog.procs, proc)
	}
	if len(prog.procs) == 0 {
		return nil, p.errorf("program has no procedures")
	}
	return prog, nil
}

func (p *parser) parseIdentList() ([]lang.Var, error) {
	var out []lang.Var
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	out = append(out, lang.Var(name))
	for p.at(tokPunct, ",") {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, lang.Var(name))
	}
	return out, nil
}

func (p *parser) parseProc() (procAST, error) {
	if err := p.expect(tokKeyword, "proc"); err != nil {
		return procAST{}, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return procAST{}, err
	}
	proc := procAST{name: name}
	if p.at(tokPunct, "(") {
		p.advance()
		if !p.at(tokPunct, ")") {
			params, err := p.parseIdentList()
			if err != nil {
				return procAST{}, err
			}
			proc.params = params
		}
		if err := p.expect(tokPunct, ")"); err != nil {
			return procAST{}, err
		}
	}
	if err := p.expect(tokPunct, "{"); err != nil {
		return procAST{}, err
	}
	if p.at(tokKeyword, "locals") {
		p.advance()
		vars, err := p.parseIdentList()
		if err != nil {
			return procAST{}, err
		}
		proc.locals = vars
		if err := p.expect(tokPunct, ";"); err != nil {
			return procAST{}, err
		}
	}
	body, err := p.parseStmtsUntilBrace()
	if err != nil {
		return procAST{}, err
	}
	proc.body = body
	return proc, nil
}

// parseStmtsUntilBrace parses statements up to and including a "}". The
// statements of a block gather on the parser's stack, above those of the
// blocks around it, and leave it as one slice of their own.
func (p *parser) parseStmtsUntilBrace() ([]stmtNode, error) {
	base := len(p.stack)
	defer func() {
		clear(p.stack[base:])
		p.stack = p.stack[:base]
	}()
	for !p.at(tokPunct, "}") {
		if p.cur().kind == tokEOF {
			return nil, p.errorf("unexpected end of input, expected \"}\"")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, s)
	}
	p.advance() // consume "}"
	if len(p.stack) == base {
		return nil, nil
	}
	return slices.Clone(p.stack[base:]), nil
}

func (p *parser) parseBlock() ([]stmtNode, error) {
	if err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	return p.parseStmtsUntilBrace()
}

func (p *parser) parseStmt() (stmtNode, error) {
	t := p.cur()
	switch {
	case t.kind == tokKeyword:
		switch t.text {
		case "skip":
			p.advance()
			return skipNode{}, p.expect(tokPunct, ";")
		case "abort":
			p.advance()
			return abortNode{}, p.expect(tokPunct, ";")
		case "return":
			p.advance()
			if p.at(tokPunct, ";") {
				p.advance()
				return returnNode{}, nil
			}
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			return returnNode{e: e}, p.expect(tokPunct, ";")
		case "havoc":
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return lang.Havoc{V: lang.Var(name)}, p.expect(tokPunct, ";")
		case "assume", "assert":
			p.advance()
			if err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			b, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			if t.text == "assume" {
				return lang.Assume{Cond: b}, nil
			}
			return assertNode{b: b}, nil
		case "if":
			p.advance()
			if err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			then, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			var els []stmtNode
			if p.at(tokKeyword, "else") {
				p.advance()
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
			return ifNode{cond: cond, then: then, els: els}, nil
		case "while":
			p.advance()
			if err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return whileNode{cond: cond, body: body}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.text)
	case t.kind == tokIdent:
		name := t.text
		p.advance()
		if p.at(tokPunct, "(") {
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			return callNode{proc: name, args: args}, p.expect(tokPunct, ";")
		}
		if err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		// `x = f(...)` assigns the callee's return value.
		if p.cur().kind == tokIdent && p.peek().kind == tokPunct && p.peek().text == "(" {
			callee := p.cur().text
			p.advance()
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			return callAssignNode{lhs: lang.Var(name), proc: callee, args: args}, p.expect(tokPunct, ";")
		}
		e, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		return lang.Assign{Lhs: lang.Var(name), Rhs: e}, p.expect(tokPunct, ";")
	default:
		return nil, p.errorf("unexpected token %s at start of statement", t)
	}
}

// parseCallArgs parses "( e1, e2, ... )" after a callee name.
func (p *parser) parseCallArgs() ([]lang.IntExpr, error) {
	if err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var args []lang.IntExpr
	if !p.at(tokPunct, ")") {
		for {
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.at(tokPunct, ",") {
				break
			}
			p.advance()
		}
	}
	return args, p.expect(tokPunct, ")")
}

// parseBool: disjunction of conjunctions of (possibly negated) relations.
func (p *parser) parseBool() (lang.BoolExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "||") {
		p.advance()
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = lang.Or{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseBoolAnd() (lang.BoolExpr, error) {
	left, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "&&") {
		p.advance()
		right, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		left = lang.And{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseBoolUnary() (lang.BoolExpr, error) {
	if p.at(tokOp, "!") {
		p.advance()
		inner, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return lang.Not{X: inner}, nil
	}
	if p.at(tokKeyword, "true") {
		p.advance()
		return lang.BoolConst{Val: true}, nil
	}
	if p.at(tokKeyword, "false") {
		p.advance()
		return lang.BoolConst{Val: false}, nil
	}
	if p.at(tokPunct, "(") {
		// Could be a parenthesised boolean or an integer expression in a
		// relation; try boolean first by lookahead for a relation operator
		// after the matching paren is hard, so parse a full boolean and
		// fall back.
		save := p.mark()
		p.advance()
		b, err := p.parseBool()
		if err == nil && p.at(tokPunct, ")") {
			p.advance()
			if !p.atRelationalOp() && !p.atArithOp() {
				return b, nil
			}
		}
		p.rewind(save)
	}
	return p.parseRelation()
}

func (p *parser) atRelationalOp() bool {
	t := p.cur()
	if t.kind != tokOp {
		return false
	}
	switch t.text {
	case "<", "<=", ">", ">=", "==", "!=":
		return true
	}
	return false
}

func (p *parser) atArithOp() bool {
	t := p.cur()
	if t.kind != tokOp {
		return false
	}
	switch t.text {
	case "+", "-", "*":
		return true
	}
	return false
}

func (p *parser) parseRelation() (lang.BoolExpr, error) {
	left, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if !p.atRelationalOp() {
		return nil, p.errorf("expected comparison operator, found %s", t)
	}
	p.advance()
	right, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	var op lang.CmpOp
	switch t.text {
	case "<":
		op = lang.Lt
	case "<=":
		op = lang.Le
	case ">":
		op = lang.Gt
	case ">=":
		op = lang.Ge
	case "==":
		op = lang.Eq
	case "!=":
		op = lang.Ne
	}
	return lang.Cmp{Op: op, X: left, Y: right}, nil
}

// parseInt: additive over multiplicative over unary over primary.
func (p *parser) parseInt() (lang.IntExpr, error) {
	left, err := p.parseIntMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.cur().text
		p.advance()
		right, err := p.parseIntMul()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			left = lang.Add{X: left, Y: right}
		} else {
			left = lang.Sub{X: left, Y: right}
		}
	}
	return left, nil
}

func (p *parser) parseIntMul() (lang.IntExpr, error) {
	left, err := p.parseIntUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") {
		opTok := p.cur()
		p.advance()
		right, err := p.parseIntUnary()
		if err != nil {
			return nil, err
		}
		// Keep the language linear: one side must be constant.
		if k, ok := constValue(left); ok {
			left = lang.Mul{K: k, X: right}
		} else if k, ok := constValue(right); ok {
			left = lang.Mul{K: k, X: left}
		} else {
			return nil, &Error{Line: int(opTok.line), Col: int(opTok.col),
				Msg: "nonlinear multiplication: one operand of * must be a constant"}
		}
	}
	return left, nil
}

func constValue(e lang.IntExpr) (int64, bool) {
	switch e := e.(type) {
	case lang.Const:
		return e.Val, true
	case lang.Neg:
		if k, ok := constValue(e.X); ok {
			return -k, true
		}
	case lang.Mul:
		if k, ok := constValue(e.X); ok {
			return e.K * k, true
		}
	}
	return 0, false
}

func (p *parser) parseIntUnary() (lang.IntExpr, error) {
	if p.at(tokOp, "-") {
		p.advance()
		inner, err := p.parseIntUnary()
		if err != nil {
			return nil, err
		}
		return lang.Neg{X: inner}, nil
	}
	return p.parseIntPrimary()
}

func (p *parser) parseIntPrimary() (lang.IntExpr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		return lang.Const{Val: t.val}, nil
	case tokIdent:
		p.advance()
		return lang.Ref{V: lang.Var(t.text)}, nil
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			return e, p.expect(tokPunct, ")")
		}
	}
	return nil, p.errorf("expected integer expression, found %s", t)
}
