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
// The front end reads the source once. The parser pulls tokens from the
// lexer as it needs them, one token of lookahead, and keeps no token
// list; a parenthesised guard that turns out to be an integer operand
// rewinds the lexer to the parenthesis. The lexer reads a byte at a time
// and decodes UTF-8 only inside comments and to name a stray character.
// The first lexical error in the source is the error of the parse, even
// when the parser met a syntax error before reaching it, so the parser
// lexes the rest of the input before it reports one. The parse builds a
// statement tree per procedure; the lowering turns it into the CFG of
// each procedure and cfg.NewProgram numbers and validates the result.
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

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct   // ( ) { } ; ,
	tokOp      // + - * = == != < <= > >= && || !
	tokKeyword // program globals proc locals if else while assume assert havoc skip abort true false return
)

func isKeyword(s string) bool {
	switch s {
	case "program", "globals", "proc", "locals", "if", "else", "while", "assume",
		"assert", "havoc", "skip", "abort", "true", "false", "return":
		return true
	}
	return false
}

type token struct {
	text string // a substring of the source; "" at the end
	val  int64  // a number's value
	line int32
	col  int32
	kind tokenKind
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

// Byte classes of the characters that start or continue a token.
const (
	cLetter = 1 << iota // [A-Za-z_]
	cDigit              // [0-9]
)

var class = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cLetter, cLetter
	}
	t['_'] = cLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	return t
}()

// lexer scans the source in place: a token's text is a substring of it.
// pos is a byte offset; columns count runes, an invalid UTF-8 byte as
// one. A lexical error sticks: every later token is the end of input and
// err names the error.
type lexer struct {
	src  string
	pos  int
	line int32
	col  int32
	err  *Error
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// skipRune steps over the rune at pos, which is not a newline.
func (lx *lexer) skipRune() {
	if lx.src[lx.pos] < utf8.RuneSelf {
		lx.pos++
	} else {
		_, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += w
	}
	lx.col++
}

// skipBlank steps over blanks and comments. It fails only on a block
// comment that does not end.
func (lx *lexer) skipBlank() *Error {
	src := lx.src
	for lx.pos < len(src) {
		switch src[lx.pos] {
		case ' ', '\t', '\r':
			lx.pos++
			lx.col++
			continue
		case '\n':
			lx.pos++
			lx.line++
			lx.col = 1
			continue
		case '/':
			if lx.pos+1 >= len(src) {
				return nil
			}
			switch src[lx.pos+1] {
			case '/':
				for lx.pos < len(src) && src[lx.pos] != '\n' {
					lx.skipRune()
				}
				continue
			case '*':
				line, col := int(lx.line), int(lx.col)
				lx.pos += 2
				lx.col += 2
				for {
					if lx.pos >= len(src) {
						return &Error{Line: line, Col: col, Msg: "unterminated block comment"}
					}
					if src[lx.pos] == '*' && lx.pos+1 < len(src) && src[lx.pos+1] == '/' {
						lx.pos += 2
						lx.col += 2
						break
					}
					if src[lx.pos] == '\n' {
						lx.pos++
						lx.line++
						lx.col = 1
					} else {
						lx.skipRune()
					}
				}
				continue
			}
		}
		return nil
	}
	return nil
}

// scan reads the next token into t.
func (lx *lexer) scan(t *token) {
	if lx.err == nil {
		lx.err = lx.skipBlank()
	}
	*t = token{line: lx.line, col: lx.col}
	if lx.err != nil || lx.pos >= len(lx.src) {
		return
	}
	src, start := lx.src, lx.pos
	c := src[start]
	switch {
	case class[c]&cLetter != 0:
		end := start + 1
		for end < len(src) && class[src[end]] != 0 {
			end++
		}
		t.text, t.kind = src[start:end], tokIdent
		if isKeyword(t.text) {
			t.kind = tokKeyword
		}
	case class[c] == cDigit:
		end := start + 1
		for end < len(src) && class[src[end]] == cDigit {
			end++
		}
		t.text, t.kind = src[start:end], tokNumber
		if len(t.text) <= 18 { // below 10^18: no overflow
			for i := 0; i < len(t.text); i++ {
				t.val = t.val*10 + int64(t.text[i]-'0')
			}
		} else if v, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			t.val = v
		} else {
			lx.err = &Error{Line: int(t.line), Col: int(t.col), Msg: fmt.Sprintf("number %s out of range", t.text)}
			*t = token{line: t.line, col: t.col}
			return
		}
	case c == '(' || c == ')' || c == '{' || c == '}' || c == ';' || c == ',':
		t.text, t.kind = src[start:start+1], tokPunct
	default:
		t.kind = tokOp
		if start+1 < len(src) {
			switch two := src[start : start+2]; two {
			case "==", "!=", "<=", ">=", "&&", "||":
				t.text = two
			}
		}
		if t.text == "" {
			switch c {
			case '+', '-', '*', '=', '<', '>', '!':
				t.text = src[start : start+1]
			default:
				r := rune(c)
				if c >= utf8.RuneSelf {
					r, _ = utf8.DecodeRuneInString(src[start:])
				}
				lx.err = &Error{Line: int(t.line), Col: int(t.col), Msg: fmt.Sprintf("unexpected character %q", r)}
				*t = token{line: t.line, col: t.col}
				return
			}
		}
	}
	lx.pos += len(t.text)
	lx.col += int32(len(t.text))
}
