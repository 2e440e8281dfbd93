package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// leafGroups returns the sorted item set of every leaf, sorted: the tree's
// partition of its items, which an in-place move must not change.
func leafGroups(t *Tree[int]) [][]int {
	var out [][]int
	var walk func(n *node[int])
	walk = func(n *node[int]) {
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].child)
			}
			return
		}
		g := make([]int, len(n.entries))
		for i := range n.entries {
			g[i] = n.entries[i].item
		}
		sort.Ints(g)
		out = append(out, g)
	}
	walk(t.root)
	slices.SortFunc(out, slices.Compare)
	return out
}

// checkTight reports an internal entry whose rectangle is not exactly the
// MBR of its child: Move re-tightens the ancestors it shrinks, so the tree
// stays as tight as Delete + Insert would leave it.
func checkTight(t *Tree[int]) error {
	var walk func(n *node[int]) error
	walk = func(n *node[int]) error {
		if n.leaf {
			return nil
		}
		for i := range n.entries {
			if got := mbr(n.entries[i].child); n.entries[i].rect != got {
				return fmt.Errorf("entry rect %+v, child MBR %+v", n.entries[i].rect, got)
			}
			if err := walk(n.entries[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root)
}

// searchSet returns the sorted (item, rect) hits of a window search.
func searchSet(t *Tree[int], w geom.Rect) []Input[int] {
	var out []Input[int]
	t.Search(w, func(r geom.Rect, id int) bool {
		out = append(out, Input[int]{Rect: r, Item: id})
		return true
	})
	slices.SortFunc(out, func(a, b Input[int]) int { return a.Item - b.Item })
	return out
}

// TestMoveMatchesDeleteInsert drives Move through small steps (which stay in
// their leaf) and long jumps (which fall back to delete + insert) on 1-D and
// 2-D trees, holding it after every step to a reference tree that deletes
// and reinserts: same search hits, same far bounds, same extent, every
// invariant, internal rectangles exactly tight. Clones taken along the way
// must keep the rectangles they were taken with.
func TestMoveMatchesDeleteInsert(t *testing.T) {
	for _, dims := range []int{1, 2} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			const n, steps, span = 400, 1500, 1000.0
			rng := rand.New(rand.NewSource(int64(dims)))
			rectAt := func(x, y, w, h float64) geom.Rect {
				if dims == 1 {
					return geom.Rect{MinX: x, MaxX: x + w}
				}
				return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			}
			rects := make([]geom.Rect, n)
			inputs := make([]Input[int], n)
			for i := range rects {
				rects[i] = rectAt(rng.Float64()*span, rng.Float64()*span, rng.Float64()*10, rng.Float64()*10)
				inputs[i] = Input[int]{Rect: rects[i], Item: i}
			}
			tr, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			type frozen struct {
				tree  *Tree[int]
				rects []geom.Rect
			}
			var snaps []frozen
			inPlace, fallback := 0, 0
			for step := 0; step < steps; step++ {
				if step%100 == 0 {
					// The store's pattern: publish the current tree, keep
					// committing to its clone.
					snaps = append(snaps, frozen{tree: tr, rects: slices.Clone(rects)})
					tr = tr.Clone()
				}
				id := rng.Intn(n)
				from := rects[id]
				var to geom.Rect
				if rng.Intn(4) == 0 {
					to = rectAt(rng.Float64()*span, rng.Float64()*span, rng.Float64()*10, rng.Float64()*10)
				} else {
					dx, dy := rng.NormFloat64(), rng.NormFloat64()
					to = rectAt(from.MinX+dx, from.MinY+dy, from.MaxX-from.MinX, from.MaxY-from.MinY)
				}
				match := func(x int) bool { return x == id }

				// The rule Move follows: the leaf's rectangle, as its parent
				// records it, must contain the destination.
				path, _ := tr.findLeaf(from, match)
				last := len(path) - 1
				stays := last == 0 || path[last-1].entries[childIndex(path[last-1], path[last])].rect.Contains(to)
				groups := leafGroups(tr)

				if ok, err := tr.Move(from, to, match); !ok || err != nil {
					t.Fatalf("step %d: move %d: found=%v err=%v", step, id, ok, err)
				}
				if !ref.Delete(from, match) {
					t.Fatalf("step %d: reference delete %d failed", step, id)
				}
				if err := ref.Insert(to, id); err != nil {
					t.Fatal(err)
				}
				rects[id] = to
				if stays {
					inPlace++
					if got := leafGroups(tr); !slices.EqualFunc(got, groups, slices.Equal) {
						t.Fatalf("step %d: an in-place move changed the leaves", step)
					}
				} else {
					fallback++
				}

				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := checkTight(tr); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if tr.Len() != n {
					t.Fatalf("step %d: %d items", step, tr.Len())
				}
				a, _ := tr.Bounds()
				b, _ := ref.Bounds()
				if a != b {
					t.Fatalf("step %d: bounds %+v, reference %+v", step, a, b)
				}
				for probe := 0; probe < 3; probe++ {
					w := rectAt(rng.Float64()*span, rng.Float64()*span, rng.Float64()*span/10, rng.Float64()*span/10)
					if got, want := searchSet(tr, w), searchSet(ref, w); !slices.Equal(got, want) {
						t.Fatalf("step %d: search %+v: %v, reference %v", step, w, got, want)
					}
					q := geom.Point{X: rng.Float64() * span}
					if dims == 2 {
						q.Y = rng.Float64() * span
					}
					got := tr.MinMaxDists(q, make([]float64, 5))
					want := ref.MinMaxDists(q, make([]float64, 5))
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: far bounds at %+v: %v, reference %v", step, q, got, want)
					}
				}
			}
			if inPlace == 0 || fallback == 0 {
				t.Fatalf("in place %d, fallback %d: both paths must run", inPlace, fallback)
			}
			t.Logf("%d in place, %d delete + insert", inPlace, fallback)

			for k, s := range snaps {
				for id, want := range s.rects {
					found := false
					s.tree.Search(want, func(r geom.Rect, x int) bool {
						found = x == id && r == want
						return !found
					})
					if !found {
						t.Fatalf("clone %d lost item %d at %+v", k, id, want)
					}
				}
				if s.tree.Len() != n {
					t.Fatalf("clone %d holds %d items", k, s.tree.Len())
				}
			}
		})
	}
}

// TestMoveFailsLikeDeleteInsert: a missing item is not found and an invalid
// destination is refused, each leaving the tree as it was.
func TestMoveFailsLikeDeleteInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewDefault[int]()
	rects := make([]geom.Rect, 100)
	for i := range rects {
		rects[i] = randomRect(rng, 100)
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	before := leafGroups(tr)
	is := func(id int) func(int) bool { return func(x int) bool { return x == id } }

	missing := geom.Rect{MinX: 500, MinY: 500, MaxX: 501, MaxY: 501}
	if tr.Delete(missing, is(0)) {
		t.Fatal("Delete found a missing item")
	}
	if ok, err := tr.Move(missing, rects[1], is(0)); ok || err != nil {
		t.Fatalf("Move of a missing item: found=%v err=%v", ok, err)
	}
	// The right rect under the wrong item is missing too.
	if ok, err := tr.Move(rects[0], rects[1], is(1)); ok || err != nil {
		t.Fatalf("Move of a mismatched item: found=%v err=%v", ok, err)
	}

	for _, bad := range []geom.Rect{
		{MinX: 2, MaxX: 1},
		{MinX: math.NaN(), MaxX: 1},
	} {
		if err := tr.Insert(bad, 999); err == nil {
			t.Fatalf("Insert accepted %+v", bad)
		}
		if ok, err := tr.Move(rects[0], bad, is(0)); ok || err == nil {
			t.Fatalf("Move to %+v: found=%v err=%v", bad, ok, err)
		}
	}
	if got := leafGroups(tr); tr.Len() != 100 || !slices.EqualFunc(got, before, slices.Equal) {
		t.Fatal("a failed Move changed the tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := searchSet(tr, rects[0]); !slices.ContainsFunc(got, func(in Input[int]) bool {
		return in.Item == 0 && in.Rect == rects[0]
	}) {
		t.Fatal("item 0 left its rect after a refused Move")
	}
}
