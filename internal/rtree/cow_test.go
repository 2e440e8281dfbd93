package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestCloneChainMVCC drives the store's actual usage pattern: a chain of
// clones where each generation mutates its own copy while every earlier
// generation stays frozen, and traversal results of a clone are identical to
// what a deep copy would produce.
func TestCloneChainMVCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := NewDefault[int]()
	live := map[int]geom.Rect{}
	next := 0
	for i := 0; i < 200; i++ {
		r := randomRect(rng, 100)
		if err := cur.Insert(r, next); err != nil {
			t.Fatal(err)
		}
		live[next] = r
		next++
	}

	type gen struct {
		tree  *Tree[int]
		items []int
	}
	var gens []gen
	for g := 0; g < 20; g++ {
		gens = append(gens, gen{tree: cur, items: collectItems(cur)})
		clone := cur.Clone()
		// Small delta per generation, like a committed batch.
		for d := 0; d < 10; d++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				var id int
				for id = range live {
					break
				}
				if !clone.Delete(live[id], func(x int) bool { return x == id }) {
					t.Fatalf("gen %d: delete %d failed", g, id)
				}
				delete(live, id)
			} else {
				r := randomRect(rng, 100)
				if err := clone.Insert(r, next); err != nil {
					t.Fatal(err)
				}
				live[next] = r
				next++
			}
		}
		if err := clone.CheckInvariants(); err != nil {
			t.Fatalf("gen %d: %v", g, err)
		}
		cur = clone
	}

	// Every frozen generation must still hold exactly its original item set.
	for g, fr := range gens {
		got := collectItems(fr.tree)
		if len(got) != len(fr.items) {
			t.Fatalf("generation %d drifted: %d items, want %d", g, len(got), len(fr.items))
		}
		for i := range got {
			if got[i] != fr.items[i] {
				t.Fatalf("generation %d item set changed at %d", g, i)
			}
		}
	}
}
