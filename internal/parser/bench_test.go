package parser_test

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/drivers"
	"repro/internal/parser"
)

// powerUpFail is the source of parport/PowerUpFail, the benchmark's probe
// program.
func powerUpFail() string {
	return drivers.Source(drivers.NamedCheck("parport", "PowerUpFail", false).Config)
}

// BenchmarkParse parses parport/PowerUpFail from source text to a
// validated program (run with -benchmem).
func BenchmarkParse(b *testing.B) {
	src := powerUpFail()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for b.Loop() {
		parser.MustParse(src)
	}
}

// parseAllocBudget is what one parse of parport/PowerUpFail may allocate:
// the 483 allocations measured when the front end came to read the source
// once (1 204 when the lexer filled a token slice first, the lowering
// grew every edge list and adjacency list by appends and named the
// convention globals through fmt), plus 10 %.
const parseAllocBudget = 531

// TestParseAllocPin holds the front end to the allocations it makes
// today: the statements and expressions of the tree, the edges, one
// adjacency array per procedure and one statement table per program.
func TestParseAllocPin(t *testing.T) {
	bi, ok := debug.ReadBuildInfo()
	if ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are not held under the race detector")
	}
	src := powerUpFail()
	if n := testing.AllocsPerRun(20, func() { parser.MustParse(src) }); n > parseAllocBudget {
		t.Errorf("parsing parport/PowerUpFail allocates %v times, budget %d", n, parseAllocBudget)
	}
}
