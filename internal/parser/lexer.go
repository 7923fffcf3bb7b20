// Package parser parses the small imperative language of this
// reproduction into cfg.Program values.
//
// Grammar sketch:
//
//	program  := ["program" ident ";"] ["globals" identlist ";"] proc+
//	proc     := "proc" ident ["(" identlist ")"]
//	            "{" ["locals" identlist ";"] stmt* "}"
//	stmt     := ident "=" iexpr ";" | ident "=" ident "(" args ")" ";"
//	          | ident "(" args ")" ";" | "havoc" ident ";"
//	          | "assume" "(" bexpr ")" ";" | "assert" "(" bexpr ")" ";"
//	          | "return" [iexpr] ";" | "abort" ";" | "skip" ";"
//	          | "if" "(" bexpr ")" block ["else" block]
//	          | "while" "(" bexpr ")" block
//	block    := "{" stmt* "}"
//	ident    := [A-Za-z_][A-Za-z0-9_]*
//
// Outside comments a program is ASCII: tokens are separated by spaces,
// tabs, CRs and LFs, and any other character is a parse error, so two
// variables that look alike are never two variables.
//
// Procedure parameters and returns are syntactic sugar lowered onto
// dedicated globals (the §3.1 model communicates through globals);
// recursion through sugared procedures is rejected.
//
// Assertions are compiled to the standard software-model-checking
// encoding: a failing assert sets the implicit global error flag and jumps
// to the procedure exit; after every call an error check propagates the
// flag to the caller's exit (the SDV harness behaviour).
package parser

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct   // ( ) { } ; ,
	tokOp      // + - * = == != < <= > >= && || !
	tokKeyword // program globals proc locals if else while assume assert havoc skip abort true false
)

var keywords = map[string]bool{
	"program": true, "globals": true, "proc": true, "locals": true,
	"if": true, "else": true, "while": true, "assume": true,
	"assert": true, "havoc": true, "skip": true, "abort": true,
	"true": true, "false": true, "return": true,
}

type token struct {
	kind tokenKind
	text string
	val  int64 // a number's value
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans the source in place: a token's text is a substring of it.
// pos is a byte offset; columns count runes. ASCII is read a byte at a
// time and anything else decoded as UTF-8, an invalid byte as one
// utf8.RuneError. Outside a comment the language is ASCII: an identifier
// is [A-Za-z_][A-Za-z0-9_]*, a blank one of space, tab, CR and LF, and
// any other rune an error, so two names that look alike are one name.
// Comments are free text.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// peek returns the rune at pos and its width in bytes; width 0 at the end.
func (lx *lexer) peek() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

// peekByte returns the byte at pos+k, or 0 past the end.
func (lx *lexer) peekByte(k int) byte {
	if lx.pos+k >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+k]
}

func (lx *lexer) nextRune() rune {
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

func (lx *lexer) skipSpaceAndComments() error {
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

func (lx *lexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	start := lx.pos
	r, _ := lx.peek()
	switch {
	case isLetter(r):
		for lx.pos < len(lx.src) && (isLetter(rune(lx.src[lx.pos])) || isDigit(rune(lx.src[lx.pos]))) {
			lx.nextRune()
		}
		text := lx.src[start:lx.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	case isDigit(r):
		for lx.pos < len(lx.src) && isDigit(rune(lx.src[lx.pos])) {
			lx.nextRune()
		}
		text := lx.src[start:lx.pos]
		val, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, lx.errorf(line, col, "number %s out of range", text)
		}
		return token{kind: tokNumber, text: text, val: val, line: line, col: col}, nil
	case r == '(' || r == ')' || r == '{' || r == '}' || r == ';' || r == ',':
		lx.nextRune()
		return token{kind: tokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
	default:
		if lx.pos+2 <= len(lx.src) {
			switch two := lx.src[lx.pos : lx.pos+2]; two {
			case "==", "!=", "<=", ">=", "&&", "||":
				lx.nextRune()
				lx.nextRune()
				return token{kind: tokOp, text: two, line: line, col: col}, nil
			}
		}
		switch r {
		case '+', '-', '*', '=', '<', '>', '!':
			lx.nextRune()
			return token{kind: tokOp, text: lx.src[start:lx.pos], line: line, col: col}, nil
		}
		return token{}, lx.errorf(line, col, "unexpected character %q", r)
	}
}

// isDigit accepts the ASCII digits only: a number is what strconv parses.
func isDigit(r rune) bool { return '0' <= r && r <= '9' }

// isLetter accepts what may start an identifier: an ASCII letter or '_'.
func isLetter(r rune) bool { return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '_' }

// tokenize scans the whole input. The token slice starts at one token
// per three bytes of source, a little denser than the drivers and the
// corpus are, so it seldom grows.
func tokenize(src string) ([]token, error) {
	lx := newLexer(src)
	out := make([]token, 0, len(src)/3+2)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
