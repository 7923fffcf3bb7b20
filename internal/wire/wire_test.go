package wire_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/summary"
	"repro/internal/wire"
)

func testSummary() summary.Summary {
	x, g := logic.LinVar("x"), logic.LinVar("g")
	return summary.Summary{
		Kind: summary.NotMay,
		Proc: "worker",
		Pre:  logic.Conj(logic.LE(x.AddConst(-3)), logic.EQ(g.AddConst(1))),
		Post: logic.Disj(logic.LE(g.Scale(2).AddConst(-9)), logic.LE(x.Scale(-1))),
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	for _, kind := range []summary.Kind{summary.Must, summary.NotMay} {
		s := testSummary()
		s.Kind = kind
		b, err := wire.AppendSummary(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := wire.DecodeSummary(b)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if got.Kind != s.Kind || got.Proc != s.Proc {
			t.Fatalf("decoded %+v, want %+v", got, s)
		}
		if string(logic.AppendWire(nil, got.Pre)) != string(logic.AppendWire(nil, s.Pre)) ||
			string(logic.AppendWire(nil, got.Post)) != string(logic.AppendWire(nil, s.Post)) {
			t.Fatal("formulas changed across round trip")
		}
	}
}

func TestQuestionRoundTrip(t *testing.T) {
	x := logic.LinVar("x")
	qs := []summary.Question{
		{Proc: "main", Pre: logic.True, Post: logic.LE(x.AddConst(-1))},
		{Proc: "helper"}, // scripted question: nil formulas
		{Proc: "p", Pre: nil, Post: logic.False},
	}
	for i, q := range qs {
		b, err := wire.AppendQuestion(nil, q)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		got, n, err := wire.DecodeQuestion(b)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("#%d: consumed %d of %d bytes", i, n, len(b))
		}
		if got.Proc != q.Proc || (got.Pre == nil) != (q.Pre == nil) || (got.Post == nil) != (q.Post == nil) {
			t.Fatalf("#%d: decoded %+v, want %+v", i, got, q)
		}
	}
}

// TestSummaryKeyIsProcessOrderFree: the canonical key of a summary does
// not depend on the order its formulas' children were supplied in (the
// property the process-local summaryKey/Question.Key lacks).
func TestSummaryKeyIsProcessOrderFree(t *testing.T) {
	a := logic.LE(logic.LinVar("x").AddConst(-3))
	b := logic.EQ(logic.LinVar("y").AddConst(1))
	s1 := summary.Summary{Kind: summary.Must, Proc: "p", Pre: logic.Conj(a, b), Post: logic.Disj(a, b)}
	s2 := summary.Summary{Kind: summary.Must, Proc: "p", Pre: logic.Conj(b, a), Post: logic.Disj(b, a)}
	k1, err := wire.SummaryKey(s1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := wire.SummaryKey(s2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("structurally equal summaries have different wire keys:\n %x\n %x", k1, k2)
	}
}

func TestCheckDurable(t *testing.T) {
	volatile := []string{"#0", "#12", "#4294967296"}
	for _, s := range volatile {
		if err := wire.CheckDurable(s); !errors.Is(err, wire.ErrVolatileKey) {
			t.Errorf("CheckDurable(%q) = %v, want ErrVolatileKey", s, err)
		}
	}
	durable := []string{"", "main", "proc_12", "#", "#12a", "x#12", "12#", "!x ≤ 3", "!"}
	for _, s := range durable {
		if err := wire.CheckDurable(s); err != nil {
			t.Errorf("CheckDurable(%q) = %v, want nil", s, err)
		}
	}
}

// TestEncoderRefusesVolatileKeys: the durability guard fires inside the
// encoder, so a process-local logic.Key threaded through a name field
// can never reach a persisted artifact.
func TestEncoderRefusesVolatileKeys(t *testing.T) {
	s := testSummary()
	s.Proc = logic.Key(s.Pre) // "#<intern-id>": the classic leak
	if !strings.HasPrefix(s.Proc, "#") {
		t.Fatalf("fixture assumption broken: logic.Key = %q", s.Proc)
	}
	if _, err := wire.AppendSummary(nil, s); !errors.Is(err, wire.ErrVolatileKey) {
		t.Fatalf("AppendSummary accepted a volatile proc key: %v", err)
	}
	if _, err := wire.SummaryKey(s); !errors.Is(err, wire.ErrVolatileKey) {
		t.Fatalf("SummaryKey accepted a volatile proc key: %v", err)
	}
	q := summary.Question{Proc: s.Proc}
	if _, err := wire.AppendQuestion(nil, q); !errors.Is(err, wire.ErrVolatileKey) {
		t.Fatalf("AppendQuestion accepted a volatile proc key: %v", err)
	}
}

func TestEncoderRefusesNilFormulas(t *testing.T) {
	s := testSummary()
	s.Pre = nil
	if _, err := wire.AppendSummary(nil, s); err == nil {
		t.Fatal("AppendSummary accepted a nil Pre")
	}
	s = testSummary()
	s.Post = nil
	if _, err := wire.AppendSummary(nil, s); err == nil {
		t.Fatal("AppendSummary accepted a nil Post")
	}
}

func TestDecodeSummaryRejectsGarbage(t *testing.T) {
	good, err := wire.AppendSummary(nil, testSummary())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(good); k++ {
		if _, _, err := wire.DecodeSummary(good[:k]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", k)
		}
	}
	if _, _, err := wire.DecodeSummary([]byte{0x51}); err == nil {
		t.Fatal("question tag decoded as summary")
	}
	bad := append([]byte(nil), good...)
	bad[1] = 0x7f // unknown summary kind
	if _, _, err := wire.DecodeSummary(bad); err == nil {
		t.Fatal("unknown kind decoded successfully")
	}
}

// TestSummaryProc: the procedure comes from the record's header alone, so
// a record whose formulas are damaged still names it, and only the full
// decode refuses it.
func TestSummaryProc(t *testing.T) {
	good, err := wire.AppendSummary(nil, testSummary())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[2+1+len("worker")] = 0x7f // the precondition's tag, after tag, kind and the name
	for _, b := range [][]byte{good, bad} {
		if proc, err := wire.SummaryProc(b); err != nil || proc != "worker" {
			t.Fatalf("SummaryProc = %q, %v", proc, err)
		}
	}
	if _, _, err := wire.DecodeSummary(bad); err == nil {
		t.Fatal("a damaged precondition decoded")
	}
	for _, b := range [][]byte{nil, {wire.TagQuestion, 0}, {wire.TagSummary, 9, 0}, good[:3]} {
		if _, err := wire.SummaryProc(b); err == nil {
			t.Fatalf("SummaryProc(%x) accepted a bad header", b)
		}
	}
}
