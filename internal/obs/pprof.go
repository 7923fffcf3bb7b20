package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// DoPunch runs f under runtime/pprof labels identifying the PUNCH
// invocation: engine ("barrier", "async", "dist"), proc (the procedure
// under analysis) and query-depth (root = 0). CPU samples taken while f
// runs are attributed to these labels, so `go tool pprof -tags` breaks
// analysis time down by engine, procedure, and tree depth.
func DoPunch(ctx context.Context, engine, proc string, depth int, f func()) {
	pprof.Do(ctx, pprof.Labels(
		"engine", engine,
		"proc", proc,
		"query-depth", strconv.Itoa(depth),
	), func(context.Context) { f() })
}
