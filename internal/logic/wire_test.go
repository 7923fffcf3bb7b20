package logic_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/smt"
)

// genLin builds a random canonical linear term.
func genLin(r *rand.Rand) logic.Lin {
	l := logic.LinConst(int64(r.Intn(21) - 10))
	for _, v := range []lang.Var{"x", "y", "z", "w"} {
		if r.Intn(2) == 0 {
			if c := int64(r.Intn(9) - 4); c != 0 {
				l = l.Add(logic.LinVar(v).Scale(c))
			}
		}
	}
	return l
}

func genFormula(r *rand.Rand, depth int) logic.Formula {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return logic.True
		case 1:
			return logic.False
		case 2:
			return logic.LE(genLin(r))
		default:
			return logic.EQ(genLin(r))
		}
	}
	n := 2 + r.Intn(3)
	fs := make([]logic.Formula, n)
	for i := range fs {
		fs[i] = genFormula(r, depth-1)
	}
	if r.Intn(2) == 0 {
		return logic.Conj(fs...)
	}
	return logic.Disj(fs...)
}

// TestWireRoundTrip: encode→decode preserves canonical identity, and the
// encoding is idempotent — re-encoding the decoded formula reproduces the
// wire bytes exactly.
func TestWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := genFormula(r, 4)
		b := logic.WireBytes(f)
		g, err := logic.DecodeWireAll(b)
		if err != nil {
			t.Fatalf("#%d: decode(%x): %v (formula %v)", i, b, err, f)
		}
		if string(logic.WireBytes(g)) != string(logic.WireBytes(f)) {
			t.Fatalf("#%d: canonical key changed across round trip:\n %v\n %v", i, f, g)
		}
		if b2 := logic.WireBytes(g); !bytes.Equal(b, b2) {
			t.Fatalf("#%d: encoding not idempotent:\n %x\n %x", i, b, b2)
		}
	}
}

// TestWireRoundTripPreservesVerdict: the decoded formula is
// equisatisfiable with (indeed, semantically identical to) the original,
// so re-solving a persisted formula gives the same answer.
func TestWireRoundTripPreservesVerdict(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := smt.New()
	for i := 0; i < 200; i++ {
		f := genFormula(r, 3)
		g, err := logic.DecodeWireAll(logic.WireBytes(f))
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		got, want := s.Sat(g), s.Sat(f)
		if got.Sat != want.Sat || got.Known != want.Known {
			t.Fatalf("#%d: sat verdict changed across round trip: %+v -> %+v\n %v\n %v",
				i, want, got, f, g)
		}
	}
}

// TestWireOrderIndependence: the canonical encoding ignores the order
// (and multiplicity) in which And/Or children were supplied.
func TestWireOrderIndependence(t *testing.T) {
	a := logic.LE(logic.LinVar("x").AddConst(-3))
	b := logic.EQ(logic.LinVar("y").AddConst(1))
	c := logic.LE(logic.LinVar("z").Scale(2).AddConst(7))
	pairs := [][2]logic.Formula{
		{logic.Conj(a, b), logic.Conj(b, a)},
		{logic.Disj(a, b, c), logic.Disj(c, b, a)},
		{logic.Conj(a, b, a), logic.Conj(b, a)},
		{logic.Conj(logic.Disj(a, b), c), logic.Conj(c, logic.Disj(b, a))},
		{logic.Disj(logic.Conj(a, b), logic.Conj(b, a)), logic.Conj(b, a)},
		{logic.Conj(a, logic.Conj(b, c)), logic.Conj(logic.Conj(c, a), b)},
	}
	for i, p := range pairs {
		if k0, k1 := string(logic.WireBytes(p[0])), string(logic.WireBytes(p[1])); k0 != k1 {
			t.Errorf("pair %d: canonical keys differ:\n %v -> %x\n %v -> %x",
				i, p[0], k0, p[1], k1)
		}
	}
	// Random deep shuffles.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f := genFormula(r, 4)
		g := reverseChildren(f)
		if string(logic.WireBytes(f)) != string(logic.WireBytes(g)) {
			t.Fatalf("#%d: canonical key depends on child order:\n %v\n %v", i, f, g)
		}
	}
}

// reverseChildren rebuilds f with every And/Or child list reversed.
func reverseChildren(f logic.Formula) logic.Formula {
	switch f := f.(type) {
	case logic.And:
		return logic.Conj(reversed(f.Fs)...)
	case logic.Or:
		return logic.Disj(reversed(f.Fs)...)
	default:
		return f
	}
}

func reversed(fs []logic.Formula) []logic.Formula {
	out := make([]logic.Formula, len(fs))
	for i, g := range fs {
		out[len(fs)-1-i] = reverseChildren(g)
	}
	return out
}

// TestWireDecodeRobustness: truncations and random mutations of valid
// encodings must fail cleanly (error, never panic) or decode to some
// formula whose re-encoding is itself canonical.
func TestWireDecodeRobustness(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		b := logic.WireBytes(genFormula(r, 4))
		for k := 0; k < len(b); k++ {
			if f, _, err := logic.DecodeWire(b[:k]); err == nil && f != nil {
				// A prefix may decode to a shorter valid formula; it must
				// still round-trip.
				if _, err := logic.DecodeWireAll(logic.WireBytes(f)); err != nil {
					t.Fatalf("prefix decode produced unencodable formula: %v", err)
				}
			}
		}
		for j := 0; j < 20; j++ {
			m := append([]byte(nil), b...)
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
			if f, err := logic.DecodeWireAll(m); err == nil {
				if _, err := logic.DecodeWireAll(logic.WireBytes(f)); err != nil {
					t.Fatalf("mutated decode produced unencodable formula: %v", err)
				}
			}
		}
	}
	if _, _, err := logic.DecodeWire(nil); err == nil {
		t.Error("decoding empty input succeeded")
	}
	if _, _, err := logic.DecodeWire([]byte{0xff}); err == nil {
		t.Error("decoding unknown tag succeeded")
	}
}

// stabilityFixture is the formula set whose canonical keys the
// cross-process test compares. Every formula mentions shared subterms so
// interning order genuinely shifts the process-local ids.
func stabilityFixture() []logic.Formula {
	x, y, z := logic.LinVar("x"), logic.LinVar("y"), logic.LinVar("z")
	a := logic.LE(x.Sub(y).AddConst(5))
	b := logic.EQ(y.Scale(3).Add(z).AddConst(-2))
	c := logic.LE(z.Scale(-1))
	return []logic.Formula{
		a, b, c,
		logic.Conj(a, b),
		logic.Disj(a, b, c),
		logic.Conj(logic.Disj(a, b), logic.Disj(b, c)),
		logic.Disj(logic.Conj(a, c), logic.Conj(c, b), logic.True),
		logic.Conj(logic.Disj(a, logic.Conj(b, c)), c),
	}
}

// TestWireCrossProcessStability re-executes the test binary with an
// environment flag that makes the child intern a pile of unrelated
// formulas first and then build the fixture in reverse order — so its
// process-local intern ids (logic.Key) disagree with the parent's — and
// verifies both processes produce byte-identical canonical keys.
func TestWireCrossProcessStability(t *testing.T) {
	if os.Getenv("WIRE_STABILITY_CHILD") == "1" {
		// Skew the intern table: allocate ids the parent never did.
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			logic.WireBytes(genFormula(r, 3))
		}
		fix := stabilityFixture()
		for i := len(fix) - 1; i >= 0; i-- {
			logic.WireBytes(fix[i]) // intern in reverse order
		}
		for _, f := range fix {
			fmt.Printf("canon %x | %s\n", logic.WireBytes(f), logic.Key(f))
		}
		return
	}
	fix := stabilityFixture()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWireCrossProcessStability$", "-test.v")
	cmd.Env = append(os.Environ(), "WIRE_STABILITY_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-exec failed: %v\n%s", err, out)
	}
	var childCanon, childKeys []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "canon "); ok {
			canon, key, _ := strings.Cut(rest, " | ")
			childCanon = append(childCanon, canon)
			childKeys = append(childKeys, key)
		}
	}
	if len(childCanon) != len(fix) {
		t.Fatalf("child reported %d keys, want %d\n%s", len(childCanon), len(fix), out)
	}
	keysDiffer := false
	for i, f := range fix {
		want := fmt.Sprintf("%x", logic.WireBytes(f))
		if childCanon[i] != want {
			t.Errorf("fixture %d: canonical key differs across processes:\n parent %s\n child  %s",
				i, want, childCanon[i])
		}
		if childKeys[i] != logic.Key(f) {
			keysDiffer = true
		}
	}
	// The experiment is only meaningful if the child's interning order
	// actually diverged: the process-local keys should not all coincide.
	if !keysDiffer {
		t.Log("note: child intern ids coincided with parent's; canonical equality still verified")
	}
}

// A term on the wire may spell its variables in any order, repeat them
// and give some a zero coefficient; decoding sums them into the
// canonical term whatever the spelling.
func TestWireDecodeCanonicalizesTerms(t *testing.T) {
	spell := func(k int64, vars ...any) []byte {
		b := binary.AppendVarint([]byte{0x03}, k) // LE
		b = binary.AppendUvarint(b, uint64(len(vars)/2))
		for i := 0; i < len(vars); i += 2 {
			name := vars[i].(string)
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = binary.AppendVarint(append(b, name...), int64(vars[i+1].(int)))
		}
		return b
	}
	want := logic.LE(logic.LinVar("a").Add(logic.LinVar("c").Scale(2)).Add(logic.LinVar("d").Scale(3)).AddConst(-1))
	for _, b := range [][]byte{
		spell(-1, "a", 1, "c", 2, "d", 3),
		spell(-1, "d", 3, "b", 0, "c", 2, "e", 0, "a", 1),
		spell(-1, "c", 1, "a", 1, "x", 0, "d", 3, "c", 1),
		spell(-1, "d", 1, "c", 2, "b", 5, "a", 1, "d", 2, "b", -5),
	} {
		got, err := logic.DecodeWireAll(b)
		if err != nil {
			t.Fatal(err)
		}
		if logic.KeyID(got) != logic.KeyID(want) {
			t.Errorf("%x decodes to %v, want %v", b, got, want)
		}
	}
}

// FuzzWireRoundTrip: any bytes that decode must re-encode canonically
// and round-trip to the same canonical key; bytes that don't decode must
// error rather than panic. The intern table is dropped between decode and re-encode: a formula that outlives its
// generation encodes to the same bytes.
func FuzzWireRoundTrip(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		f.Add(logic.WireBytes(genFormula(r, 4)))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := logic.DecodeWire(data)
		if err != nil {
			return
		}
		before := logic.WireBytes(g)
		logic.DropTable()
		b := logic.WireBytes(g)
		if !bytes.Equal(b, before) {
			t.Fatalf("encoding changed across a table drop: %x vs %x", b, before)
		}
		h, err := logic.DecodeWireAll(b)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v (%x)", err, b)
		}
		if !bytes.Equal(logic.WireBytes(h), b) {
			t.Fatalf("encoding not idempotent: %x vs %x", logic.WireBytes(h), b)
		}
		if again, _, _ := logic.DecodeWire(data); logic.KeyID(g) != logic.KeyID(again) {
			t.Fatalf("decoded before the drop keys as %#x, decoded after it as %#x", logic.KeyID(g), logic.KeyID(again))
		}
	})
}
