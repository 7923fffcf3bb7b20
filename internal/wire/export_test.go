package wire

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/summary"
)

// DecodeQuestion decodes one question and returns the bytes consumed.
func DecodeQuestion(buf []byte) (summary.Question, int, error) {
	var q summary.Question
	if len(buf) < 1 || buf[0] != TagQuestion {
		return q, 0, fmt.Errorf("wire: not a question record")
	}
	pos := 1
	proc, n, err := decodeString(buf[pos:])
	if err != nil {
		return q, 0, err
	}
	pos += n
	pre, n, err := decodeOptFormula(buf[pos:])
	if err != nil {
		return q, 0, err
	}
	pos += n
	post, n, err := decodeOptFormula(buf[pos:])
	if err != nil {
		return q, 0, err
	}
	pos += n
	return summary.Question{Proc: proc, Pre: pre, Post: post}, pos, nil
}

func decodeOptFormula(buf []byte) (logic.Formula, int, error) {
	if len(buf) > 0 && buf[0] == logic.WireNil {
		return nil, 1, nil
	}
	return logic.DecodeWire(buf)
}
