package logic

import (
	"sync"
	"testing"
)

// dropFixture builds one formula of every kind the constructors make.
func dropFixture() Formula {
	x, y := internVar("drop_x"), internVar("drop_y")
	return Conj(LEq(x, LinConst(3)), Disj(Lt(y, x), Eq(y, LinConst(1))), Not(LEq(x, y)))
}

// A drop starts a new generation. A formula built before it is not
// interned any more, yet keeps working: KeyID re-interns it and reaches
// the id a fresh build gets, and that id is never one of the dropped
// generation's.
func TestDropStartsGeneration(t *testing.T) {
	old := dropFixture()
	oldID := KeyID(old)
	dropTable()
	if live(oldID) {
		t.Fatalf("id %#x of the dropped generation is still live", oldID)
	}
	fresh := dropFixture()
	if KeyID(fresh) == oldID {
		t.Fatalf("the new generation issued the dropped id %#x again", oldID)
	}
	if KeyID(old) != KeyID(fresh) {
		t.Fatalf("a formula of the dropped generation re-interns to %#x, a fresh build to %#x", KeyID(old), KeyID(fresh))
	}
	if got := Conj(old, LEq(internVar("drop_x"), LinConst(9))); KeyID(got) != KeyID(Conj(fresh, LEq(internVar("drop_x"), LinConst(9)))) {
		t.Fatal("a constructor over a formula of the dropped generation builds another node than over a fresh one")
	}
	checkTableInvariants(t)
}

// The table is dropped when the last run in progress ends, not before.
func TestRunsHoldTheTable(t *testing.T) {
	f := dropFixture()
	id := KeyID(f)
	BeginRun()
	BeginRun()
	EndRun()
	if KeyID(f) != id {
		t.Fatal("the table was dropped while a run was still in progress")
	}
	EndRun()
	if live(id) {
		t.Fatal("the last run ended and the table was not dropped")
	}
}

// Builders racing with drops: every formula still keys as its structure
// does once the dust settles, and the table holds no node with a child
// of a dropped generation. This is the -race coverage of the drop.
func TestDropConcurrentWithBuilders(t *testing.T) {
	const workers, rounds = 4, 40
	built := make([][]Formula, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				built[w] = append(built[w], buildNested(int64(i%5)))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			dropTable()
		}
	}()
	wg.Wait()
	for w := range built {
		for i, f := range built[w] {
			want := buildNested(int64(i % 5))
			if f.String() != want.String() || KeyID(f) != KeyID(want) {
				t.Fatalf("worker %d formula %d: %v keys as %#x, a fresh build %v as %#x", w, i, f, KeyID(f), want, KeyID(want))
			}
		}
	}
	checkTableInvariants(t)
}
