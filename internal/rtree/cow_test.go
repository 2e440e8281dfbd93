package rtree

import (
	"math/rand"
	"slices"
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

// TestDumpRebuildRoundTrip checks that Dump -> Rebuild reproduces the tree
// structurally: identical item sets, identical f_min bounds and identical
// search enumeration order (the property the paged checkpoint relies on for
// byte-identical candidate sets).
func TestDumpRebuildRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := NewDefault[int]()
		for i := 0; i < n; i++ {
			if err := tr.Insert(randomRect(rng, 200), i); err != nil {
				t.Fatal(err)
			}
		}

		// In-memory emit: store nodes in a slice, refs are indices.
		type rec struct {
			leaf     bool
			rects    []geom.Rect
			items    []int
			children []int64
		}
		var recs []rec
		root, err := tr.Dump(func(leaf bool, rects []geom.Rect, items []int, children []int64) (int64, error) {
			// The slices are Dump's reused buffers: keep copies.
			recs = append(recs, rec{leaf, slices.Clone(rects), slices.Clone(items), slices.Clone(children)})
			return int64(len(recs) - 1), nil
		})
		if err != nil {
			t.Fatalf("n=%d dump: %v", n, err)
		}

		got, err := Rebuild(root, tr.Len(), DefaultMinEntries, DefaultMaxEntries,
			func(ref int64) (bool, []geom.Rect, []int, []int64, error) {
				r := recs[ref]
				return r.leaf, r.rects, r.items, r.children, nil
			})
		if err != nil {
			t.Fatalf("n=%d rebuild: %v", n, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("n=%d: rebuilt len %d", n, got.Len())
		}
		if n > 0 {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("n=%d rebuilt: %v", n, err)
			}
		}

		// Enumeration order must match exactly, not just the sets.
		var a, b []int
		tr.All(func(_ geom.Rect, id int) bool { a = append(a, id); return true })
		got.All(func(_ geom.Rect, id int) bool { b = append(b, id); return true })
		if len(a) != len(b) {
			t.Fatalf("n=%d: %d vs %d items", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: enumeration diverges at %d", n, i)
			}
		}
		for q := 0; q < 20; q++ {
			p := geom.Point{X: rng.Float64()*400 - 200}
			if tr.MinMaxDist(p) != got.MinMaxDist(p) {
				t.Fatalf("n=%d: f_min differs at %+v", n, p)
			}
		}
	}
}
