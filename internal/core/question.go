package core

import (
	"repro/internal/cfg"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/summary"
)

// AssertionQuestion builds the verification question for a program whose
// safety property was compiled from assert/abort statements: can main,
// from any input, reach its exit with the error flag raised?
func AssertionQuestion(prog *cfg.Program) summary.Question {
	return summary.Question{
		Proc: prog.Main,
		Pre:  logic.True,
		Post: logic.LEq(logic.LinConst(1), logic.LinVar(parser.ErrVar)),
	}
}
