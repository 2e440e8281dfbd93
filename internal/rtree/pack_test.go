package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// refBulkLoad is the STR bulk load as it was first written, with stable
// sorts: every pass sorts the inputs (or entries) themselves with
// sort.SliceStable, and every slab is sorted on centre Y. The key-array
// pack must build the same tree, ties included.
func refBulkLoad(inputs []Input[int], capPerNode int) *node[int] {
	items := append([]Input[int](nil), inputs...)
	sort.SliceStable(items, func(i, j int) bool { return items[i].Rect.Center().X < items[j].Rect.Center().X })
	var level []*node[int]
	refTile(len(items), capPerNode, func(slab []int) {
		sub := make([]Input[int], len(slab))
		for k, i := range slab {
			sub[k] = items[i]
		}
		sort.SliceStable(sub, func(i, j int) bool { return sub[i].Rect.Center().Y < sub[j].Rect.Center().Y })
		for _, run := range refRuns(len(sub), capPerNode) {
			n := &node[int]{leaf: true}
			for _, in := range sub[run[0]:run[1]] {
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
		sort.SliceStable(ents, func(i, j int) bool { return ents[i].rect.Center().X < ents[j].rect.Center().X })
		level = level[:0]
		refTile(len(ents), capPerNode, func(slab []int) {
			sub := make([]entry[int], len(slab))
			for k, i := range slab {
				sub[k] = ents[i]
			}
			sort.SliceStable(sub, func(i, j int) bool { return sub[i].rect.Center().Y < sub[j].rect.Center().Y })
			for _, run := range refRuns(len(sub), capPerNode) {
				level = append(level, &node[int]{entries: append([]entry[int](nil), sub[run[0]:run[1]]...)})
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

// refRuns returns the [start, end) bounds of a slab of m items cut into its
// fewest runs of at most capPerNode, run j ending at (j+1)·m/runs.
func refRuns(m, capPerNode int) [][2]int {
	runs := (m + capPerNode - 1) / capPerNode
	var out [][2]int
	for j := 0; j < runs; j++ {
		out = append(out, [2]int{j * m / runs, (j + 1) * m / runs})
	}
	return out
}

// TestBulkLoadHoldsOccupancy packs every size up to 400 and every 97th up
// to 5,000, in 1-D and 2-D: each tree passes CheckInvariants, so no node
// but the root holds fewer than DefaultMinEntries entries.
func TestBulkLoadHoldsOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for n, step := 1, 1; n <= 5000; n += step {
		if n >= 400 {
			step = 97
		}
		for _, dims := range []int{1, 2} {
			inputs := make([]Input[int], n)
			for i := range inputs {
				r := randomRect(rng, 1e4)
				if dims == 1 {
					r.MinY, r.MaxY = 0, 0
				}
				inputs[i] = Input[int]{Rect: r, Item: i}
			}
			tr, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d, %d-D: %v", n, dims, err)
			}
		}
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
// pack that sorted its inputs with sort.SliceStable: the same tree, node for
// node and entry for entry, on 1-D intervals (where the Y pass is skipped),
// on 2-D rectangles, with thousands of tied centres, with centres at −0 and
// +0 (equal, so tied), and with equal centres of different widths.
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
		// Half the centres are −0 or +0, the rest spread on both sides.
		"signed-zero": func(i int) geom.Rect {
			switch i % 4 {
			case 0:
				return pointRect(math.Copysign(0, -1), 0)
			case 1:
				return interval(-1, 2)
			}
			return interval(rng.Float64()*20-10, rng.Float64())
		},
		// Every interval is centred on one of 5 points, at one of 8 widths.
		"equal-centre-widths": func(int) geom.Rect {
			w := float64(1 + rng.Intn(8))
			return interval(float64(rng.Intn(5))*10-w/2, w)
		},
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

// BenchmarkBulkLoad times one STR pack of 100k entries: 1-D intervals as the
// store's checkpoints and recovery pack them (start uniform in [0, n), width
// 1 to 25), and 2-D rectangles.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		gen  func() geom.Rect
	}{
		{"1d", func() geom.Rect { lo := rng.Float64() * n; return geom.Rect{MinX: lo, MaxX: lo + 1 + rng.Float64()*24} }},
		{"2d", func() geom.Rect { return randomRect(rng, n) }},
	}
	for _, c := range cases {
		inputs := make([]Input[int], n)
		for i := range inputs {
			inputs[i] = Input[int]{Rect: c.gen(), Item: i}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCentreKeyOrdersAsCmpCompare holds centreKey to cmp.Compare on every
// pair of a set of edge values and random floats: NaN below everything, −0
// equal to +0, infinities, subnormals and both signs.
func TestCentreKeyOrdersAsCmpCompare(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1022, 1, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(7))
	for range 200 {
		vals = append(vals, math.Float64frombits(rng.Uint64()), (rng.Float64()-0.5)*1e6)
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(centreKey(a), centreKey(b)), cmp.Compare(a, b); got != want {
				t.Fatalf("keys of %g and %g compare %d, cmp.Compare %d", a, b, got, want)
			}
		}
	}
}
