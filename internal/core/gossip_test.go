package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/summary"
	"repro/internal/wire"
)

// referenceGossip is the exchange as it was before the per-procedure
// cursors (distNode.sent): every live node's whole database is copied
// with DB.All at every exchange, and known is probed for every (summary,
// peer) pair, including pairs delivered long ago. FuzzGossipAgainstReference
// holds gossip to it.
func referenceGossip(r *reducer, nodes []*distNode, rng *rand.Rand, drop float64, cost int64) int {
	res := &r.res
	res.SyncExchanges++
	r.vtime += cost
	r.in.m.Inc(obs.GossipRounds)
	moved := 0
	deferred := make([]int64, len(nodes))
	for _, from := range nodes {
		if from.dead {
			continue
		}
		for _, s := range from.db.All() {
			key := summaryKey(s)
			for _, to := range nodes {
				if to.dead || to.id == from.id || to.known[key] {
					continue
				}
				if drop > 0 && rng.Float64() < drop {
					res.DroppedDeliveries++
					deferred[to.id]++
					continue
				}
				to.known[key] = true
				to.db.Add(s)
				moved++
				r.in.deliver(from.id, to.id, s, r.vtime)
			}
		}
	}
	for i := range r.nodes {
		r.nodes[i].GossipBacklog = deferred[i]
	}
	if moved > 0 {
		wakeBlocked(r, nodes)
	}
	return moved
}

// referenceFailNode is failNode with the recovery walk it had before the
// cursors: the victim's whole database copied with DB.All.
func referenceFailNode(r *reducer, nodes []*distNode, victim int) {
	if victim < 0 || victim >= len(nodes) || nodes[victim].dead {
		return
	}
	res := &r.res
	dead := nodes[victim]
	dead.dead = true
	res.KilledNodes = append(res.KilledNodes, victim)
	if r.in.tr != nil {
		r.in.emit(obs.Event{Type: obs.EvNodeKill, Node: victim, VTime: r.vtime})
	}
	for _, s := range dead.db.All() {
		key := summaryKey(s)
		for _, to := range nodes {
			if to.dead || to.known[key] {
				continue
			}
			to.known[key] = true
			to.db.Add(s)
			res.RecoveredSummaries++
			r.in.deliver(victim, to.id, s, r.vtime)
		}
	}
	for _, q := range dead.tree.All() {
		at := owner(nodes, q.Q.Proc)
		if at < 0 {
			return
		}
		dst := nodes[at]
		dead.tree.MoveTo(dst.tree, q.ID)
		if q.State == query.Blocked {
			dst.tree.SetState(q.ID, query.Ready)
		}
		res.ReroutedQueries++
	}
	if res.RecoveredSummaries > 0 {
		wakeBlocked(r, nodes)
	}
}

// gossipUniverse is the set of summaries a gossip script adds: three
// procedures, both kinds, and a Pre of i+1 atoms for the i-th, so that
// the wire size a delivery event carries names the summary delivered.
var gossipUniverse = func() []summary.Summary {
	var u []summary.Summary
	var atoms []logic.Formula
	for i := 0; i < 24; i++ {
		atoms = append(atoms, logic.LE(logic.LinVar(lang.Var(fmt.Sprintf("g%d", i)))))
		kind := summary.NotMay
		if i%3 == 0 {
			kind = summary.Must
		}
		u = append(u, summary.Summary{Kind: kind, Proc: []string{"p", "q", "r"}[i%3], Pre: logic.Conj(atoms...), Post: logic.True})
	}
	return u
}()

// gossipEvents records the gossip events of a run: a tracer.
type gossipEvents struct{ evs []obs.Event }

func (g *gossipEvents) Event(ev obs.Event) {
	if ev.Type == obs.EvGossipSend || ev.Type == obs.EvGossipRecv || ev.Type == obs.EvNodeKill {
		g.evs = append(g.evs, ev)
	}
}

// gossipRig is a cluster of bare nodes for driving exchanges directly:
// empty query trees, databases without a solver (an exchange answers no
// question) and a tracer recording every delivery.
type gossipRig struct {
	r     *reducer
	nodes []*distNode
	rng   *rand.Rand
	rec   *gossipEvents
}

func newGossipRig(n int, seed int64) *gossipRig {
	g := &gossipRig{r: &reducer{nodes: make([]obs.NodeState, n)}, nodes: newNodes(n),
		rng: rand.New(rand.NewSource(seed)), rec: &gossipEvents{}}
	g.r.in = instr{tr: g.rec}
	for _, nd := range g.nodes {
		nd.db, nd.tree = summary.New(nil), query.NewTree()
	}
	return g
}

// delivery is one gossip delivery: sender, receiver and the index of the
// summary in gossipUniverse.
type delivery struct{ from, to, sum int }

// deliveries turns the events recorded since the last call into
// deliveries, and forgets them.
func (g *gossipRig) deliveries(t *testing.T, bySize map[int64]int) []delivery {
	t.Helper()
	var out []delivery
	evs := g.rec.evs
	for i := 0; i < len(evs); i++ {
		if evs[i].Type == obs.EvNodeKill {
			out = append(out, delivery{from: evs[i].Node, to: -1, sum: -1})
			continue
		}
		send, recv := evs[i], evs[i+1]
		i++
		j, ok := bySize[send.N]
		if !ok || send.Type != obs.EvGossipSend || recv.Type != obs.EvGossipRecv || recv.N != send.N || gossipUniverse[j].Proc != send.Proc {
			t.Fatalf("unexpected gossip events %+v, %+v", send, recv)
		}
		out = append(out, delivery{send.Node, recv.Node, j})
	}
	g.rec.evs = g.rec.evs[:0]
	return out
}

// shards lists every node's summaries, procedure by procedure, by key.
func (g *gossipRig) shards() [][]gossipKey {
	out := make([][]gossipKey, len(g.nodes))
	for i, nd := range g.nodes {
		for _, s := range nd.db.All() {
			out[i] = append(out[i], summaryKey(s))
		}
	}
	return out
}

// checkCursors holds the cursor invariant: below sent[proc], every
// summary of proc is known to every live peer.
func (g *gossipRig) checkCursors(t *testing.T) {
	t.Helper()
	for _, from := range g.nodes {
		if from.dead {
			continue
		}
		for proc, n := range from.sent {
			for _, s := range from.db.ForProc(proc)[:n] {
				for _, to := range g.nodes {
					if !to.dead && to != from && !to.known[summaryKey(s)] {
						t.Fatalf("node %d's cursor for %s is %d, but node %d has not received %v", from.id, proc, n, to.id, s)
					}
				}
			}
		}
	}
}

// FuzzGossipAgainstReference holds gossip and failNode to the exchange
// they replaced. A script sets up 2–4 nodes, warm-starts a few summaries,
// then adds summaries (some to several nodes at once) between exchanges,
// periodic ones under a drop probability of 0, 0.3 or 1 with a seeded rng
// and forced ones without loss, and kills a node before one exchange.
// After every step both clusters must have made the same deliveries in
// the same order, moved and dropped as many, published the same backlogs,
// hold the same shards and leave their rngs at the same draw.
func FuzzGossipAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 5, 3, 2, 7, 1, 0, 3, 9, 2, 0, 1, 0})
	f.Add([]byte{2, 1, 42, 2, 4, 0, 3, 2, 2, 12, 15, 3, 4, 1, 0, 2, 20, 6, 0, 0, 3, 5, 7, 0, 1, 0, 0, 0})
	for i := range 12 {
		b := make([]byte, 160)
		rand.New(rand.NewSource(int64(i))).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		logic.BeginRun() // keeps every summary's KeyID for the script
		defer logic.EndRun()
		bySize := map[int64]int{}
		for j, s := range gossipUniverse {
			b, _ := wire.AppendSummary(nil, s)
			bySize[int64(len(b))] = j
		}
		if len(bySize) != len(gossipUniverse) {
			t.Fatal("two summaries of the universe have one wire size")
		}
		src := &byteSrc{data: data}
		n := 2 + int(src.next()%3)
		drop := []float64{0, 0.3, 1}[src.next()%3]
		seed := int64(src.next())
		killAt, victim := int(src.next()%8), int(src.next())%n
		got, want := newGossipRig(n, seed), newGossipRig(n, seed)
		add := func(j, mask int) {
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 && !got.nodes[i].dead {
					got.nodes[i].db.Add(gossipUniverse[j])
					want.nodes[i].db.Add(gossipUniverse[j])
				}
			}
		}
		for w := int(src.next() % 4); w > 0; w-- {
			add(int(src.next())%len(gossipUniverse), int(src.next()))
		}
		for i := range got.nodes {
			got.nodes[i].startGossip()
			want.nodes[i].startGossip()
		}
		exchanges := 0
		for step := 0; step < 48 && src.i < len(src.data); step++ {
			op := src.next() % 4
			if op >= 2 {
				add(int(src.next())%len(gossipUniverse), int(src.next()))
				continue
			}
			if exchanges == killAt {
				failNode(got.r, got.nodes, victim)
				referenceFailNode(want.r, want.nodes, victim)
			}
			exchanges++
			var g, w int
			if op == 0 {
				g, w = gossip(got.r, got.nodes, got.rng, drop, 3), referenceGossip(want.r, want.nodes, want.rng, drop, 3)
			} else {
				g, w = gossip(got.r, got.nodes, nil, 0, 3), referenceGossip(want.r, want.nodes, nil, 0, 3)
			}
			where := fmt.Sprintf("exchange %d (n=%d drop=%v seed=%d kill %d before %d)", exchanges, n, drop, seed, victim, killAt)
			if gd, wd := got.deliveries(t, bySize), want.deliveries(t, bySize); !slices.Equal(gd, wd) {
				t.Fatalf("%s: deliveries\n %v\nreference\n %v", where, gd, wd)
			}
			if g != w {
				t.Fatalf("%s: moved %d, reference %d", where, g, w)
			}
			gr, wr := got.r.res, want.r.res
			if gr.DroppedDeliveries != wr.DroppedDeliveries || gr.RecoveredSummaries != wr.RecoveredSummaries ||
				gr.SyncExchanges != wr.SyncExchanges || !slices.Equal(gr.KilledNodes, wr.KilledNodes) || got.r.vtime != want.r.vtime {
				t.Fatalf("%s: counters %d dropped, %d recovered, %d exchanges, killed %v, vtime %d; reference %d, %d, %d, %v, %d", where,
					gr.DroppedDeliveries, gr.RecoveredSummaries, gr.SyncExchanges, gr.KilledNodes, got.r.vtime,
					wr.DroppedDeliveries, wr.RecoveredSummaries, wr.SyncExchanges, wr.KilledNodes, want.r.vtime)
			}
			if !slices.Equal(got.r.nodes, want.r.nodes) {
				t.Fatalf("%s: node gauges %+v, reference %+v", where, got.r.nodes, want.r.nodes)
			}
			gs, ws := got.shards(), want.shards()
			for i := range gs {
				if !slices.Equal(gs[i], ws[i]) {
					t.Fatalf("%s: node %d holds %v, reference %v", where, i, gs[i], ws[i])
				}
			}
			if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
				t.Fatalf("%s: next draw %d, reference %d", where, a, b)
			}
			got.checkCursors(t)
		}
	})
}

// byteSrc decodes a byte stream into bounded decisions; exhausted input
// reads as zeros.
type byteSrc struct {
	data []byte
	i    int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

// TestIdleGossipAllocPin holds the cost of an exchange to what is new in
// it: with nothing new it allocates nothing, whether each shard holds 10
// summaries or 1 000.
func TestIdleGossipAllocPin(t *testing.T) {
	logic.BeginRun()
	defer logic.EndRun()
	idle := func(per int) float64 {
		g := newGossipRig(2, 1)
		g.r.in = instr{}
		for i := range per {
			for j, nd := range g.nodes {
				nd.db.Add(summary.Summary{Kind: summary.NotMay, Proc: fmt.Sprintf("p%d", i%10),
					Pre: logic.LE(logic.LinVar("x").AddConst(int64(-2*i - j))), Post: logic.True})
			}
		}
		for _, nd := range g.nodes {
			nd.startGossip()
		}
		if moved := gossip(g.r, g.nodes, g.rng, 0, 1); moved != 2*per {
			t.Fatalf("first exchange moved %d summaries, want %d", moved, 2*per)
		}
		return testing.AllocsPerRun(50, func() {
			if gossip(g.r, g.nodes, g.rng, 0, 1) != 0 {
				t.Fatal("an idle exchange moved a summary")
			}
		})
	}
	small, large := idle(10), idle(1000)
	t.Logf("an idle exchange allocates %v times with 10 summaries a shard, %v with 1 000", small, large)
	if small != 0 || large != 0 {
		t.Errorf("an idle exchange allocates %v times with 10 summaries a shard, %v with 1 000: want 0", small, large)
	}
}

// TestSortedProcsMerge: a node's sorted procedure list follows its
// database as procedures arrive in batches of any order and size,
// including batches that land before, between and after every name
// already merged, and a call with nothing new returns the same list.
func TestSortedProcsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nd := newNodes(1)[0]
	nd.db = summary.New(nil)
	nd.startGossip()
	names := rng.Perm(200)
	for len(names) > 0 {
		k := min(1+rng.Intn(12), len(names))
		for _, i := range names[:k] {
			nd.db.Add(summary.Summary{Kind: summary.NotMay, Proc: fmt.Sprintf("p%03d", i), Pre: logic.True, Post: logic.True})
		}
		names = names[k:]
		got := nd.sortedProcs()
		want := slices.Clone(nd.db.Procs())
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("sortedProcs() = %v, want %v", got, want)
		}
		if again := nd.sortedProcs(); &again[0] != &got[0] || len(again) != len(got) {
			t.Fatal("a call with nothing new changed the list")
		}
	}
}
