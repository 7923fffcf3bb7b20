package regions

import (
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
)

// AuditAbsent checks every graph after every split of one of its regions
// and shows dead every pair of live regions across a simple statement that
// has no live edge — eliminated, shut by a search, or born dead as a part
// of either — until the returned function is called. fail gets what Check
// reports.
func AuditAbsent(fail func(error), dead func(ce *cfg.Edge, from, to logic.Formula)) (stop func()) {
	old := auditSplit
	auditSplit = func(g *Graph) {
		if err := g.Check(); err != nil {
			fail(err)
		}
		for ci := range g.proc.Edges {
			ce := &g.proc.Edges[ci]
			if _, isCall := ce.Stmt.(lang.Call); isCall {
				continue // only a summary kills a call edge; see Check
			}
			for _, from := range g.at[ce.From] {
				for _, to := range g.at[ce.To] {
					if g.Edge(ci, from, to) == 0 {
						dead(ce, from.F, to.F)
					}
				}
			}
		}
	}
	return func() { auditSplit = old }
}
