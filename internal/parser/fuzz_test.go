package parser

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzParse feeds arbitrary text to the front end. Every input yields a
// program or an error, never a panic and never both; the lexer and the
// parser report a *Error with a position, and every number token carries
// the value strconv gives its text.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("proc main { x = 99999999999999999999; }")
	f.Add("proc main { x = ٣ + 12٣; }")
	f.Add("proc main { locals café; café = 1; }")
	f.Add("proc main {\u00a0skip; }")
	f.Add("proc f(a) { return a * 2; } proc main { locals r; r = f(3); assert(r == 6); }")
	f.Add("proc main { /* unterminated")
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.bolt"))
	for _, name := range files {
		if src, err := os.ReadFile(name); err == nil {
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // nesting is bounded by length; long inputs only slow the run
		}
		var pe *Error
		lx := newLexer(src)
		var tok token
		for lx.scan(&tok); tok.kind != tokEOF; lx.scan(&tok) {
			if tok.kind != tokNumber {
				continue
			}
			if v, err := strconv.ParseInt(tok.text, 10, 64); err != nil || v != tok.val {
				t.Fatalf("number token %q carries %d, strconv gives %d (%v)", tok.text, tok.val, v, err)
			}
		}
		p := newParser(src)
		_, err := p.parseProgram()
		if err = p.finish(err); err != nil && !errors.As(err, &pe) {
			t.Fatalf("parse(%q): untyped error %v", src, err)
		}
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a program and an error", src, prog, err)
		}
		if prog != nil {
			if err := prog.Validate(); err != nil {
				t.Fatalf("Parse(%q) returned a program that does not validate: %v", src, err)
			}
		}
	})
}
