package parser

// The front end as it was before the one-pass lexer: a lexer that scans
// the whole input into a token slice first, a parser over that slice,
// the lowering, and cfg's adjacency build, statement numbering and
// validation, all as they were written then. It is the reference the
// differential tests and FuzzParseAgainstReference hold the front end to:
// the same program, byte for byte and statement id for statement id, or
// the same error.

import (
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/cfg"
	"repro/internal/lang"
)

type refTokenKind int

const (
	refTokEOF refTokenKind = iota
	refTokIdent
	refTokNumber
	refTokPunct   // ( ) { } ; ,
	refTokOp      // + - * = == != < <= > >= && || !
	refTokKeyword // program globals proc locals if else while assume assert havoc skip abort true false
)

var refKeywords = map[string]bool{
	"program": true, "globals": true, "proc": true, "locals": true,
	"if": true, "else": true, "while": true, "assume": true,
	"assert": true, "havoc": true, "skip": true, "abort": true,
	"true": true, "false": true, "return": true,
}

type refToken struct {
	kind refTokenKind
	text string
	val  int64 // a number's value
	line int
	col  int
}

func (t refToken) String() string {
	if t.kind == refTokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer scans the source in place: a token's text is a substring of it.
// pos is a byte offset; columns count runes. ASCII is read a byte at a
// time and anything else decoded as UTF-8, an invalid byte as one
// utf8.RuneError. Outside a comment the language is ASCII: an identifier
// is [A-Za-z_][A-Za-z0-9_]*, a blank one of space, tab, CR and LF, and
// any other rune an error, so two names that look alike are one name.
// Comments are free text.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func refNewLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (lx *refLexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// peek returns the rune at pos and its width in bytes; width 0 at the end.
func (lx *refLexer) peek() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

// peekByte returns the byte at pos+k, or 0 past the end.
func (lx *refLexer) peekByte(k int) byte {
	if lx.pos+k >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+k]
}

func (lx *refLexer) nextRune() rune {
	r, w := lx.peek()
	lx.pos += max(w, 1)
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *refLexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		r, _ := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.nextRune()
		case r == '/' && lx.peekByte(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.nextRune()
			}
		case r == '/' && lx.peekByte(1) == '*':
			line, col := lx.line, lx.col
			lx.nextRune()
			lx.nextRune()
			for {
				if lx.pos >= len(lx.src) {
					return lx.errorf(line, col, "unterminated block comment")
				}
				if lx.src[lx.pos] == '*' && lx.peekByte(1) == '/' {
					lx.nextRune()
					lx.nextRune()
					break
				}
				lx.nextRune()
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *refLexer) next() (refToken, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return refToken{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return refToken{kind: refTokEOF, line: line, col: col}, nil
	}
	start := lx.pos
	r, _ := lx.peek()
	switch {
	case refIsLetter(r):
		for lx.pos < len(lx.src) && (refIsLetter(rune(lx.src[lx.pos])) || refIsDigit(rune(lx.src[lx.pos]))) {
			lx.nextRune()
		}
		text := lx.src[start:lx.pos]
		kind := refTokIdent
		if refKeywords[text] {
			kind = refTokKeyword
		}
		return refToken{kind: kind, text: text, line: line, col: col}, nil
	case refIsDigit(r):
		for lx.pos < len(lx.src) && refIsDigit(rune(lx.src[lx.pos])) {
			lx.nextRune()
		}
		text := lx.src[start:lx.pos]
		val, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return refToken{}, lx.errorf(line, col, "number %s out of range", text)
		}
		return refToken{kind: refTokNumber, text: text, val: val, line: line, col: col}, nil
	case r == '(' || r == ')' || r == '{' || r == '}' || r == ';' || r == ',':
		lx.nextRune()
		return refToken{kind: refTokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
	default:
		if lx.pos+2 <= len(lx.src) {
			switch two := lx.src[lx.pos : lx.pos+2]; two {
			case "==", "!=", "<=", ">=", "&&", "||":
				lx.nextRune()
				lx.nextRune()
				return refToken{kind: refTokOp, text: two, line: line, col: col}, nil
			}
		}
		switch r {
		case '+', '-', '*', '=', '<', '>', '!':
			lx.nextRune()
			return refToken{kind: refTokOp, text: lx.src[start:lx.pos], line: line, col: col}, nil
		}
		return refToken{}, lx.errorf(line, col, "unexpected character %q", r)
	}
}

// isDigit accepts the ASCII digits only: a number is what strconv parses.
func refIsDigit(r rune) bool { return '0' <= r && r <= '9' }

// isLetter accepts what may start an identifier: an ASCII letter or '_'.
func refIsLetter(r rune) bool { return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '_' }

// tokenize scans the whole input. The token slice starts at one token
// per three bytes of source, a little denser than the drivers and the
// corpus are, so it seldom grows.
func refTokenize(src string) ([]refToken, error) {
	lx := refNewLexer(src)
	out := make([]refToken, 0, len(src)/3+2)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == refTokEOF {
			return out, nil
		}
	}
}

// Statement-level AST produced by the parser, lowered to a CFG afterwards.

type refStmtNode interface{ isStmtNode() }

type refAssignNode struct {
	v lang.Var
	e lang.IntExpr
}
type refHavocNode struct{ v lang.Var }
type refCallNode struct {
	proc string
	args []lang.IntExpr
}
type refCallAssignNode struct {
	lhs  lang.Var
	proc string
	args []lang.IntExpr
}
type refReturnNode struct{ e lang.IntExpr }
type refSkipNode struct{}
type refAssumeNode struct{ b lang.BoolExpr }
type refAssertNode struct{ b lang.BoolExpr }
type refAbortNode struct{}
type refIfNode struct {
	cond      lang.BoolExpr
	then, els []refStmtNode
}
type refWhileNode struct {
	cond lang.BoolExpr
	body []refStmtNode
}

func (refAssignNode) isStmtNode()     {}
func (refHavocNode) isStmtNode()      {}
func (refCallNode) isStmtNode()       {}
func (refCallAssignNode) isStmtNode() {}
func (refReturnNode) isStmtNode()     {}
func (refSkipNode) isStmtNode()       {}
func (refAssumeNode) isStmtNode()     {}
func (refAssertNode) isStmtNode()     {}
func (refAbortNode) isStmtNode()      {}
func (refIfNode) isStmtNode()         {}
func (refWhileNode) isStmtNode()      {}

type refProcAST struct {
	name   string
	params []lang.Var
	locals []lang.Var
	body   []refStmtNode
}

type refProgramAST struct {
	name    string
	globals []lang.Var
	procs   []refProcAST
}

type refParser struct {
	toks []refToken
	pos  int
}

func (p *refParser) cur() refToken { return p.toks[p.pos] }
func (p *refParser) advance()      { p.pos++ }
func (p *refParser) at(kind refTokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && t.text == text
}

func (p *refParser) errorf(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) expect(kind refTokenKind, text string) error {
	if !p.at(kind, text) {
		return p.errorf("expected %q, found %s", text, p.cur())
	}
	p.advance()
	return nil
}

func (p *refParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != refTokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *refParser) parseProgram() (*refProgramAST, error) {
	prog := &refProgramAST{name: "program"}
	if p.at(refTokKeyword, "program") {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		prog.name = name
		if err := p.expect(refTokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if p.at(refTokKeyword, "globals") {
		p.advance()
		vars, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		prog.globals = vars
		if err := p.expect(refTokPunct, ";"); err != nil {
			return nil, err
		}
	}
	for !p.at(refTokEOF, "") && p.cur().kind != refTokEOF {
		proc, err := p.parseProc()
		if err != nil {
			return nil, err
		}
		prog.procs = append(prog.procs, *proc)
	}
	if len(prog.procs) == 0 {
		return nil, p.errorf("program has no procedures")
	}
	return prog, nil
}

func (p *refParser) parseIdentList() ([]lang.Var, error) {
	var out []lang.Var
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	out = append(out, lang.Var(name))
	for p.at(refTokPunct, ",") {
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, lang.Var(name))
	}
	return out, nil
}

func (p *refParser) parseProc() (*refProcAST, error) {
	if err := p.expect(refTokKeyword, "proc"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	proc := &refProcAST{name: name}
	if p.at(refTokPunct, "(") {
		p.advance()
		if !p.at(refTokPunct, ")") {
			params, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			proc.params = params
		}
		if err := p.expect(refTokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(refTokPunct, "{"); err != nil {
		return nil, err
	}
	if p.at(refTokKeyword, "locals") {
		p.advance()
		vars, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		proc.locals = vars
		if err := p.expect(refTokPunct, ";"); err != nil {
			return nil, err
		}
	}
	body, err := p.parseStmtsUntilBrace()
	if err != nil {
		return nil, err
	}
	proc.body = body
	return proc, nil
}

func (p *refParser) parseStmtsUntilBrace() ([]refStmtNode, error) {
	var out []refStmtNode
	for !p.at(refTokPunct, "}") {
		if p.cur().kind == refTokEOF {
			return nil, p.errorf("unexpected end of input, expected \"}\"")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.advance() // consume "}"
	return out, nil
}

func (p *refParser) parseBlock() ([]refStmtNode, error) {
	if err := p.expect(refTokPunct, "{"); err != nil {
		return nil, err
	}
	return p.parseStmtsUntilBrace()
}

func (p *refParser) parseStmt() (refStmtNode, error) {
	t := p.cur()
	switch {
	case t.kind == refTokKeyword:
		switch t.text {
		case "skip":
			p.advance()
			return refSkipNode{}, p.expect(refTokPunct, ";")
		case "abort":
			p.advance()
			return refAbortNode{}, p.expect(refTokPunct, ";")
		case "return":
			p.advance()
			if p.at(refTokPunct, ";") {
				p.advance()
				return refReturnNode{}, nil
			}
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			return refReturnNode{e: e}, p.expect(refTokPunct, ";")
		case "havoc":
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return refHavocNode{v: lang.Var(name)}, p.expect(refTokPunct, ";")
		case "assume", "assert":
			p.advance()
			if err := p.expect(refTokPunct, "("); err != nil {
				return nil, err
			}
			b, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(refTokPunct, ")"); err != nil {
				return nil, err
			}
			if err := p.expect(refTokPunct, ";"); err != nil {
				return nil, err
			}
			if t.text == "assume" {
				return refAssumeNode{b: b}, nil
			}
			return refAssertNode{b: b}, nil
		case "if":
			p.advance()
			if err := p.expect(refTokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(refTokPunct, ")"); err != nil {
				return nil, err
			}
			then, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			var els []refStmtNode
			if p.at(refTokKeyword, "else") {
				p.advance()
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
			return refIfNode{cond: cond, then: then, els: els}, nil
		case "while":
			p.advance()
			if err := p.expect(refTokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseBool()
			if err != nil {
				return nil, err
			}
			if err := p.expect(refTokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return refWhileNode{cond: cond, body: body}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.text)
	case t.kind == refTokIdent:
		name := t.text
		p.advance()
		if p.at(refTokPunct, "(") {
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			return refCallNode{proc: name, args: args}, p.expect(refTokPunct, ";")
		}
		if err := p.expect(refTokOp, "="); err != nil {
			return nil, err
		}
		// `x = f(...)` assigns the callee's return value.
		if p.cur().kind == refTokIdent && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].kind == refTokPunct && p.toks[p.pos+1].text == "(" {
			callee := p.cur().text
			p.advance()
			args, err := p.parseCallArgs()
			if err != nil {
				return nil, err
			}
			return refCallAssignNode{lhs: lang.Var(name), proc: callee, args: args}, p.expect(refTokPunct, ";")
		}
		e, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		return refAssignNode{v: lang.Var(name), e: e}, p.expect(refTokPunct, ";")
	default:
		return nil, p.errorf("unexpected token %s at start of statement", t)
	}
}

// parseCallArgs parses "( e1, e2, ... )" after a callee name.
func (p *refParser) parseCallArgs() ([]lang.IntExpr, error) {
	if err := p.expect(refTokPunct, "("); err != nil {
		return nil, err
	}
	var args []lang.IntExpr
	if !p.at(refTokPunct, ")") {
		for {
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.at(refTokPunct, ",") {
				break
			}
			p.advance()
		}
	}
	return args, p.expect(refTokPunct, ")")
}

// parseBool: disjunction of conjunctions of (possibly negated) relations.
func (p *refParser) parseBool() (lang.BoolExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.at(refTokOp, "||") {
		p.advance()
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = lang.Or{X: left, Y: right}
	}
	return left, nil
}

func (p *refParser) parseBoolAnd() (lang.BoolExpr, error) {
	left, err := p.parseBoolUnary()
	if err != nil {
		return nil, err
	}
	for p.at(refTokOp, "&&") {
		p.advance()
		right, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		left = lang.And{X: left, Y: right}
	}
	return left, nil
}

func (p *refParser) parseBoolUnary() (lang.BoolExpr, error) {
	if p.at(refTokOp, "!") {
		p.advance()
		inner, err := p.parseBoolUnary()
		if err != nil {
			return nil, err
		}
		return lang.Not{X: inner}, nil
	}
	if p.at(refTokKeyword, "true") {
		p.advance()
		return lang.BoolConst{Val: true}, nil
	}
	if p.at(refTokKeyword, "false") {
		p.advance()
		return lang.BoolConst{Val: false}, nil
	}
	if p.at(refTokPunct, "(") {
		// Could be a parenthesised boolean or an integer expression in a
		// relation; try boolean first by lookahead for a relation operator
		// after the matching paren is hard, so parse a full boolean and
		// fall back.
		save := p.pos
		p.advance()
		b, err := p.parseBool()
		if err == nil && p.at(refTokPunct, ")") {
			p.advance()
			if !p.atRelationalOp() && !p.atArithOp() {
				return b, nil
			}
		}
		p.pos = save
	}
	return p.parseRelation()
}

func (p *refParser) atRelationalOp() bool {
	t := p.cur()
	if t.kind != refTokOp {
		return false
	}
	switch t.text {
	case "<", "<=", ">", ">=", "==", "!=":
		return true
	}
	return false
}

func (p *refParser) atArithOp() bool {
	t := p.cur()
	if t.kind != refTokOp {
		return false
	}
	switch t.text {
	case "+", "-", "*":
		return true
	}
	return false
}

func (p *refParser) parseRelation() (lang.BoolExpr, error) {
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
func (p *refParser) parseInt() (lang.IntExpr, error) {
	left, err := p.parseIntMul()
	if err != nil {
		return nil, err
	}
	for p.at(refTokOp, "+") || p.at(refTokOp, "-") {
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

func (p *refParser) parseIntMul() (lang.IntExpr, error) {
	left, err := p.parseIntUnary()
	if err != nil {
		return nil, err
	}
	for p.at(refTokOp, "*") {
		opTok := p.cur()
		p.advance()
		right, err := p.parseIntUnary()
		if err != nil {
			return nil, err
		}
		// Keep the language linear: one side must be constant.
		if k, ok := refConstValue(left); ok {
			left = lang.Mul{K: k, X: right}
		} else if k, ok := refConstValue(right); ok {
			left = lang.Mul{K: k, X: left}
		} else {
			return nil, &Error{Line: opTok.line, Col: opTok.col,
				Msg: "nonlinear multiplication: one operand of * must be a constant"}
		}
	}
	return left, nil
}

func refConstValue(e lang.IntExpr) (int64, bool) {
	switch e := e.(type) {
	case lang.Const:
		return e.Val, true
	case lang.Neg:
		if k, ok := refConstValue(e.X); ok {
			return -k, true
		}
	case lang.Mul:
		if k, ok := refConstValue(e.X); ok {
			return e.K * k, true
		}
	}
	return 0, false
}

func (p *refParser) parseIntUnary() (lang.IntExpr, error) {
	if p.at(refTokOp, "-") {
		p.advance()
		inner, err := p.parseIntUnary()
		if err != nil {
			return nil, err
		}
		return lang.Neg{X: inner}, nil
	}
	return p.parseIntPrimary()
}

func (p *refParser) parseIntPrimary() (lang.IntExpr, error) {
	t := p.cur()
	switch t.kind {
	case refTokNumber:
		p.advance()
		return lang.Const{Val: t.val}, nil
	case refTokIdent:
		p.advance()
		return lang.Ref{V: lang.Var(t.text)}, nil
	case refTokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			return e, p.expect(refTokPunct, ")")
		}
	}
	return nil, p.errorf("expected integer expression, found %s", t)
}

// refParse parses src into a validated program.
func refParse(src string) (*cfg.Program, error) {
	toks, err := refTokenize(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks}
	ast, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return refLowerProgram(ast)
}

// sig records a procedure's calling-convention needs.
type refSig struct {
	params   []lang.Var
	needsRet bool
}

// argVar and retVar name the auto-declared globals implementing the
// parameter/return sugar for procedure proc. The "__" names cannot clash
// with user identifiers that also survive cycle validation.
func refArgVar(proc string, i int) lang.Var { return lang.Var(fmt.Sprintf("%s__arg%d", proc, i)) }
func refRetVar(proc string) lang.Var        { return lang.Var(proc + "__ret") }

func refLowerProgram(ast *refProgramAST) (*cfg.Program, error) {
	usesErr := false
	for _, proc := range ast.procs {
		if refStmtsUseErr(proc.body) {
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
	sigs := map[string]*refSig{}
	for _, proc := range ast.procs {
		sigs[proc.name] = &refSig{params: proc.params}
	}
	var scanRet func(stmts []refStmtNode, self string)
	scanRet = func(stmts []refStmtNode, self string) {
		for _, st := range stmts {
			switch st := st.(type) {
			case refReturnNode:
				if st.e != nil {
					sigs[self].needsRet = true
				}
			case refCallAssignNode:
				if sg, ok := sigs[st.proc]; ok {
					sg.needsRet = true
				}
			case refIfNode:
				scanRet(st.then, self)
				scanRet(st.els, self)
			case refWhileNode:
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
		for i := range sg.params {
			globals = append(globals, refArgVar(proc.name, i))
		}
		if sg.needsRet {
			globals = append(globals, refRetVar(proc.name))
		}
	}
	if err := refCheckCallArities(ast, sigs); err != nil {
		return nil, err
	}
	if len(sugared) > 0 {
		if cyc := refFindCycleWith(ast, sugared); cyc != "" {
			return nil, fmt.Errorf("parser: procedure %q with parameters/return participates in recursion, which the calling-convention sugar cannot support", cyc)
		}
	}

	main := ast.procs[0].name
	for _, proc := range ast.procs {
		if proc.name == "main" {
			main = "main"
		}
	}

	var procs []*cfg.Proc
	for _, procAst := range ast.procs {
		locals := append(append([]lang.Var{}, procAst.params...), procAst.locals...)
		lw := &refLowerer{
			b:         refNewProc(procAst.name, locals...),
			errChecks: usesErr,
			usesErr:   usesErr,
			self:      procAst.name,
			sigs:      sigs,
		}
		lw.exit = lw.b.NewNode()
		cur := lw.b.Entry()
		if procAst.name == main && usesErr {
			next := lw.b.NewNode()
			lw.b.AddEdge(cur, next, lang.Assign{Lhs: ErrVar, Rhs: lang.C(0)})
			cur = next
		}
		// Parameter prologue: copy argument globals into the parameters.
		for i, param := range procAst.params {
			next := lw.b.NewNode()
			lw.b.AddEdge(cur, next, lang.Assign{Lhs: param, Rhs: lang.Ref{V: refArgVar(procAst.name, i)}})
			cur = next
		}
		end := lw.lowerStmts(cur, procAst.body)
		lw.b.AddEdge(end, lw.exit, lang.Skip{})
		procs = append(procs, lw.b.Finish(lw.exit))
	}
	return refNewProgram(ast.name, globals, main, procs...)
}

// checkCallArities validates every call site against its definition.
func refCheckCallArities(ast *refProgramAST, sigs map[string]*refSig) error {
	var walk func(stmts []refStmtNode) error
	walk = func(stmts []refStmtNode) error {
		for _, st := range stmts {
			switch st := st.(type) {
			case refCallNode:
				if sg, ok := sigs[st.proc]; ok && len(st.args) != len(sg.params) {
					return fmt.Errorf("parser: call to %s with %d arguments, want %d", st.proc, len(st.args), len(sg.params))
				}
			case refCallAssignNode:
				if sg, ok := sigs[st.proc]; ok && len(st.args) != len(sg.params) {
					return fmt.Errorf("parser: call to %s with %d arguments, want %d", st.proc, len(st.args), len(sg.params))
				}
			case refIfNode:
				if err := walk(st.then); err != nil {
					return err
				}
				if err := walk(st.els); err != nil {
					return err
				}
			case refWhileNode:
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
func refFindCycleWith(ast *refProgramAST, sugared map[string]bool) string {
	edges := map[string][]string{}
	var collect func(self string, stmts []refStmtNode)
	collect = func(self string, stmts []refStmtNode) {
		for _, st := range stmts {
			switch st := st.(type) {
			case refCallNode:
				edges[self] = append(edges[self], st.proc)
			case refCallAssignNode:
				edges[self] = append(edges[self], st.proc)
			case refIfNode:
				collect(self, st.then)
				collect(self, st.els)
			case refWhileNode:
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

func refStmtsUseErr(stmts []refStmtNode) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case refAssertNode, refAbortNode:
			return true
		case refIfNode:
			if refStmtsUseErr(s.then) || refStmtsUseErr(s.els) {
				return true
			}
		case refWhileNode:
			if refStmtsUseErr(s.body) {
				return true
			}
		}
	}
	return false
}

type refLowerer struct {
	b         *refBuilder
	exit      cfg.NodeID
	errChecks bool
	usesErr   bool
	self      string
	sigs      map[string]*refSig
}

func (lw *refLowerer) lowerStmts(cur cfg.NodeID, stmts []refStmtNode) cfg.NodeID {
	for _, s := range stmts {
		cur = lw.lowerStmt(cur, s)
	}
	return cur
}

func (lw *refLowerer) lowerStmt(cur cfg.NodeID, s refStmtNode) cfg.NodeID {
	b := lw.b
	switch s := s.(type) {
	case refAssignNode:
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Assign{Lhs: s.v, Rhs: s.e})
		return next
	case refHavocNode:
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Havoc{V: s.v})
		return next
	case refSkipNode:
		return cur
	case refAssumeNode:
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Assume{Cond: s.b})
		return next
	case refCallNode:
		return lw.lowerCall(cur, s.proc, s.args, nil)
	case refCallAssignNode:
		lhs := s.lhs
		return lw.lowerCall(cur, s.proc, s.args, &lhs)
	case refReturnNode:
		if s.e != nil {
			mid := b.NewNode()
			b.AddEdge(cur, mid, lang.Assign{Lhs: refRetVar(lw.self), Rhs: s.e})
			cur = mid
		}
		b.AddEdge(cur, lw.exit, lang.Skip{})
		// Continuation is unreachable.
		return b.NewNode()
	case refAssertNode:
		fail := b.NewNode()
		next := b.NewNode()
		b.AddEdge(cur, fail, lang.Assume{Cond: lang.NotE(s.b)})
		b.AddEdge(fail, lw.exit, lang.Assign{Lhs: ErrVar, Rhs: lang.C(1)})
		b.AddEdge(cur, next, lang.Assume{Cond: s.b})
		return next
	case refAbortNode:
		b.AddEdge(cur, lw.exit, lang.Assign{Lhs: ErrVar, Rhs: lang.C(1)})
		// Continuation is unreachable; give it a fresh node so following
		// statements lower without connecting back.
		return b.NewNode()
	case refIfNode:
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
	case refWhileNode:
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
func (lw *refLowerer) lowerCall(cur cfg.NodeID, proc string, args []lang.IntExpr, assignTo *lang.Var) cfg.NodeID {
	b := lw.b
	for i, a := range args {
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Assign{Lhs: refArgVar(proc, i), Rhs: a})
		cur = next
	}
	after := b.NewNode()
	b.AddEdge(cur, after, lang.Call{Proc: proc})
	cur = after
	if lw.errChecks {
		next := b.NewNode()
		b.AddEdge(cur, lw.exit, lang.Assume{Cond: lang.CmpE(lang.V(string(ErrVar)), lang.Ge, lang.C(1))})
		b.AddEdge(cur, next, lang.Assume{Cond: lang.CmpE(lang.V(string(ErrVar)), lang.Le, lang.C(0))})
		cur = next
	}
	if assignTo != nil {
		next := b.NewNode()
		b.AddEdge(cur, next, lang.Assign{Lhs: *assignTo, Rhs: lang.Ref{V: refRetVar(proc)}})
		cur = next
	}
	return cur
}

// refParseBoolExpr parses a standalone boolean expression (for building
// reachability questions programmatically).
func refParseBoolExpr(src string) (lang.BoolExpr, error) {
	toks, err := refTokenize(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks}
	b, err := p.parseBool()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != refTokEOF {
		return nil, p.errorf("unexpected trailing input %s", p.cur())
	}
	return b, nil
}

// refBuilder is cfg.Builder as it was: Finish appends every adjacency
// list on its own.
type refBuilder struct{ proc *cfg.Proc }

func refNewProc(name string, locals ...lang.Var) *refBuilder {
	b := &refBuilder{proc: &cfg.Proc{Name: name, Locals: locals}}
	b.proc.Entry = b.NewNode()
	return b
}

func (b *refBuilder) NewNode() cfg.NodeID {
	id := cfg.NodeID(b.proc.NNodes)
	b.proc.NNodes++
	return id
}

func (b *refBuilder) AddEdge(from, to cfg.NodeID, stmt lang.Stmt) {
	b.proc.Edges = append(b.proc.Edges, cfg.Edge{From: from, To: to, Stmt: stmt})
}

func (b *refBuilder) Entry() cfg.NodeID { return b.proc.Entry }

func (b *refBuilder) Finish(exit cfg.NodeID) *cfg.Proc {
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

// refNewProgram is cfg.NewProgram as it was: statements numbered through
// a map keyed by the statement values, every edge validated.
func refNewProgram(name string, globals []lang.Var, main string, procs ...*cfg.Proc) (*cfg.Program, error) {
	prog := &cfg.Program{Name: name, Globals: globals, Main: main, Procs: map[string]*cfg.Proc{}}
	for _, p := range procs {
		if prog.Procs[p.Name] != nil {
			return nil, fmt.Errorf("cfg: duplicate procedure %q", p.Name)
		}
		prog.Procs[p.Name] = p
	}
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
	if err := refValidate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func refValidate(p *cfg.Program) error {
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
	names := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	var used []lang.Var
	for _, name := range names {
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
