package regions

import (
	"repro/internal/lang"
	"repro/internal/logic"
)

// AuditInherited shows f every abstract edge a split marks shut by
// inheritance — its statement and its two region formulas — until the
// returned function is called.
func AuditInherited(f func(stmt lang.Stmt, from, to logic.Formula)) (stop func()) {
	auditInherited = func(g *Graph, e *Edge) { f(g.proc.Edges[e.CFG].Stmt, e.From.F, e.To.F) }
	return func() { auditInherited = nil }
}
