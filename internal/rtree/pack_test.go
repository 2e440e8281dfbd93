package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// refBulkLoad is the STR bulk load as it was first written: every pass sorts
// the inputs (or entries) themselves with sort.Slice, and every slab is
// sorted on centre Y. The key-array pack must build the same tree.
func refBulkLoad(inputs []Input[int], capPerNode int) *node[int] {
	items := append([]Input[int](nil), inputs...)
	sort.Slice(items, func(i, j int) bool { return items[i].Rect.Center().X < items[j].Rect.Center().X })
	var level []*node[int]
	refTile(len(items), capPerNode, func(slab []int) {
		sub := make([]Input[int], len(slab))
		for k, i := range slab {
			sub[k] = items[i]
		}
		sort.Slice(sub, func(i, j int) bool { return sub[i].Rect.Center().Y < sub[j].Rect.Center().Y })
		for o := 0; o < len(sub); o += capPerNode {
			n := &node[int]{leaf: true}
			for _, in := range sub[o:min(o+capPerNode, len(sub))] {
				n.entries = append(n.entries, entry[int]{rect: in.Rect, item: in.Item})
			}
			level = append(level, n)
		}
	})
	for len(level) > 1 {
		ents := make([]entry[int], len(level))
		for i, n := range level {
			ents[i] = entry[int]{rect: mbr(n), child: n}
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].rect.Center().X < ents[j].rect.Center().X })
		level = level[:0]
		refTile(len(ents), capPerNode, func(slab []int) {
			sub := make([]entry[int], len(slab))
			for k, i := range slab {
				sub[k] = ents[i]
			}
			sort.Slice(sub, func(i, j int) bool { return sub[i].rect.Center().Y < sub[j].rect.Center().Y })
			for o := 0; o < len(sub); o += capPerNode {
				level = append(level, &node[int]{entries: append([]entry[int](nil), sub[o:min(o+capPerNode, len(sub))]...)})
			}
		})
	}
	return level[0]
}

// refTile calls slab with the indices of each vertical STR slab of n items.
func refTile(n, capPerNode int, slab func([]int)) {
	sliceCount := max(1, int(math.Ceil(math.Sqrt(float64(n)/float64(capPerNode)))))
	perSlice := int(math.Ceil(float64(n) / float64(sliceCount)))
	for s := 0; s < n; s += perSlice {
		idx := make([]int, 0, perSlice)
		for i := s; i < min(s+perSlice, n); i++ {
			idx = append(idx, i)
		}
		slab(idx)
	}
}

// sameShape reports the first difference between two trees: node kind,
// entry count, rectangle or item, walked in entry order.
func sameShape(a, b *node[int], path string) error {
	if a.leaf != b.leaf || len(a.entries) != len(b.entries) {
		return fmt.Errorf("%s: leaf %v with %d entries, want leaf %v with %d", path, a.leaf, len(a.entries), b.leaf, len(b.entries))
	}
	for i := range a.entries {
		ea, eb := a.entries[i], b.entries[i]
		if ea.rect != eb.rect || ea.item != eb.item {
			return fmt.Errorf("%s/%d: %+v item %d, want %+v item %d", path, i, ea.rect, ea.item, eb.rect, eb.item)
		}
		if !a.leaf {
			if err := sameShape(ea.child, eb.child, fmt.Sprintf("%s/%d", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestBulkLoadMatchesSortSliceReference holds the key-array STR pack to the
// pack that sorted its inputs with sort.Slice: the same tree, node for node
// and entry for entry, on 1-D intervals (where the Y pass is skipped), on
// 2-D rectangles, and with thousands of tied centres.
func TestBulkLoadMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	interval := func(lo, w float64) geom.Rect { return geom.Rect{MinX: lo, MaxX: lo + w} }
	cases := map[string]func(i int) geom.Rect{
		"1d": func(int) geom.Rect { return interval(rng.Float64()*1e5, 1+rng.Float64()*24) },
		"2d": func(int) geom.Rect { return randomRect(rng, 1e4) },
		// Every other interval is centred on one of 40 points.
		"ties": func(i int) geom.Rect {
			if i%2 == 0 {
				c := float64(rng.Intn(40))
				return interval(c-1, 2)
			}
			return interval(rng.Float64()*40, rng.Float64())
		},
		"2d-ties": func(int) geom.Rect { return pointRect(float64(rng.Intn(30)), float64(rng.Intn(30))) },
	}
	for name, gen := range cases {
		for _, n := range []int{1, 15, 17, 300, 10_000, 100_000} {
			if testing.Short() && n > 10_000 {
				continue
			}
			inputs := make([]Input[int], n)
			for i := range inputs {
				inputs[i] = Input[int]{Rect: gen(i), Item: i}
			}
			tr, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameShape(tr.root, refBulkLoad(inputs, DefaultMaxEntries), "root"); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
		}
	}
}
