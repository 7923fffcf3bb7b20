package core

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/summary"
)

// AssertionQuestion builds the verification question for a program whose
// safety property was compiled from assert/abort statements: can main,
// from any input, reach its exit with the error flag raised? A program
// with no assert or abort never declares the flag, so it has no error
// state to reach: its question asks for false.
func AssertionQuestion(prog *cfg.Program) summary.Question {
	post := logic.Formula(logic.False)
	if slices.Contains(prog.Globals, parser.ErrVar) {
		post = logic.LEq(logic.LinConst(1), logic.LinVar(parser.ErrVar))
	}
	return summary.Question{Proc: prog.Main, Pre: logic.True, Post: post}
}
