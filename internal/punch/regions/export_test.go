package regions

import (
	"fmt"
	"sync"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
)

// AuditAbsent checks every graph after every split of one of its regions,
// and every graph Take hands out of a shelf, and shows dead every pair of
// live regions across a simple statement that has no live edge —
// eliminated, shut by a search, or born dead as a part of either — until
// the returned function is called. fail gets what Check reports; took is
// told of every audited take.
func AuditAbsent(fail func(error), dead func(ce *cfg.Edge, from, to logic.Formula), took func()) (stop func()) {
	oldSplit, oldHand := auditSplit, auditHand
	audit := func(g *Graph) {
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
	auditSplit = audit
	auditHand = func(g *Graph, taken bool) {
		if taken {
			took()
			audit(g)
		}
	}
	return func() { auditSplit, auditHand = oldSplit, oldHand }
}

// AuditHands follows every graph from Shelve to Take, from any goroutine,
// until the returned function is called: a graph shelved while it is on a
// shelf already had two holders, and one taken that is not on a shelf was
// handed out twice. fail gets either; took is told of every take.
func AuditHands(fail func(error), took func()) (stop func()) {
	old := auditHand
	var mu sync.Mutex
	shelved := map[*Graph]bool{}
	auditHand = func(g *Graph, taken bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case taken && !shelved[g]:
			fail(fmt.Errorf("regions: graph of %s taken, but it is on no shelf", g.proc.Name))
		case !taken && shelved[g]:
			fail(fmt.Errorf("regions: graph of %s shelved while it is on a shelf", g.proc.Name))
		}
		shelved[g] = !taken
		if taken {
			took()
		}
	}
	return func() { auditHand = old }
}
