package punch

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
)

// graph stands in for a region graph: the shelf moves values it never
// looks into.
type graph struct{ name string }

// TestShelfBoundAndEviction: a shelf never holds more than shelfCap
// graphs; past that it drops the least recently shelved first, and a
// graph shelved again under its key moves to the back. Every Put is
// counted, every drop an eviction, every found Take a take.
func TestShelfBoundAndEviction(t *testing.T) {
	s := &Shelf{}
	key := func(i int) (string, logic.ID) { return fmt.Sprintf("p%d", i%5), logic.ID(i) }
	for i := 0; i < 3*shelfCap; i++ {
		proc, post := key(i)
		s.Put(proc, post, &graph{proc})
		if s.n > shelfCap {
			t.Fatalf("after %d puts the shelf holds %d graphs, more than %d", i+1, s.n, shelfCap)
		}
	}
	for i := 0; i < 3*shelfCap; i++ {
		proc, post := key(i)
		if g := s.Take(proc, post); (g != nil) != (i >= 2*shelfCap) {
			t.Errorf("key %d of %d: taken %v; the last %d shelved must be held, the rest evicted", i, 3*shelfCap, g, shelfCap)
		}
	}
	if shelved, taken, evicted := s.Counts(); shelved != 3*shelfCap || taken != shelfCap || evicted != 2*shelfCap || s.n != 0 {
		t.Errorf("counts shelved %d taken %d evicted %d, %d held; want %d, %d, %d, 0", shelved, taken, evicted, s.n, 3*shelfCap, shelfCap, 2*shelfCap)
	}

	// Shelving key 0 again drops its old graph and makes it the most
	// recent: a full shelf then evicts key 1 first.
	s = &Shelf{}
	for i := 0; i < shelfCap; i++ {
		s.Put("p", logic.ID(i), &graph{fmt.Sprint(i)})
	}
	fresh := &graph{"0 again"}
	s.Put("p", 0, fresh)
	s.Put("p", logic.ID(shelfCap), &graph{"new"})
	if g := s.Take("p", 1); g != nil {
		t.Errorf("key 1 is the least recently shelved and still held: %v", g)
	}
	if g := s.Take("p", 0); g != fresh {
		t.Errorf("key 0 takes %v, want the graph shelved last under it", g)
	}
	if _, _, evicted := s.Counts(); evicted != 2 {
		t.Errorf("%d evictions, want 2 (the replaced graph of key 0, then key 1)", evicted)
	}
}

// TestShelfTakeIsAMove: a taken graph has left the shelf — a second Take
// of its key finds nothing — and procedure and postcondition both key it.
// A nil shelf takes nothing and holds nothing.
func TestShelfTakeIsAMove(t *testing.T) {
	s := &Shelf{}
	g := &graph{"p"}
	s.Put("p", 7, g)
	if s.Take("q", 7) != nil || s.Take("p", 8) != nil {
		t.Fatal("a graph was taken under another procedure or postcondition")
	}
	if s.Take("p", 7) != g {
		t.Fatal("the shelved graph was not taken")
	}
	if again := s.Take("p", 7); again != nil {
		t.Fatalf("the graph was taken twice: %v", again)
	}
	var none *Shelf
	none.Put("p", 7, g)
	if none.Take("p", 7) != nil {
		t.Fatal("a nil shelf handed out a graph")
	}
	if a, b, c := none.Counts(); a+b+c != 0 {
		t.Fatal("a nil shelf counted")
	}
}

// TestShelfConcurrentMoves: eight goroutines shelve and take graphs under
// a few shared keys at once, as MAP workers of one node do. No graph is
// taken twice, and the counts balance: every graph shelved was taken,
// dropped, or is still held. Run it under the race detector (make race).
func TestShelfConcurrentMoves(t *testing.T) {
	s := &Shelf{}
	var mu sync.Mutex
	taken := map[*graph]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				proc, post := fmt.Sprint("p", i%3), logic.ID(i%7)
				s.Put(proc, post, &graph{proc})
				if g, ok := s.Take(proc, logic.ID((i+w)%7)).(*graph); ok {
					mu.Lock()
					if taken[g] {
						t.Errorf("graph %p taken twice", g)
					}
					taken[g] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	shelved, nTaken, evicted := s.Counts()
	if shelved != 8*500 || nTaken != int64(len(taken)) || shelved != nTaken+evicted+int64(s.n) {
		t.Errorf("shelved %d, taken %d (%d distinct), evicted %d, held %d: the counts do not balance", shelved, nTaken, len(taken), evicted, s.n)
	}
}
