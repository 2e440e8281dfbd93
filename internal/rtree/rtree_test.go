package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func pointRect(x, y float64) geom.Rect {
	return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
}

func randomRect(rng *rand.Rand, span float64) geom.Rect {
	x := rng.Float64() * span
	y := rng.Float64() * span
	return geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*span/20, MaxY: y + rng.Float64()*span/20}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](2, 3); err == nil {
		t.Error("maxEntries 3 accepted")
	}
	if _, err := New[int](1, 8); err == nil {
		t.Error("minEntries 1 accepted")
	}
	if _, err := New[int](5, 8); err == nil {
		t.Error("minEntries > max/2 accepted")
	}
	if _, err := New[int](4, 8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := NewDefault[int]()
	rng := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, 500)
	for i := range rects {
		rects[i] = randomRect(rng, 100)
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Compare window query results with a linear scan.
	for trial := 0; trial < 50; trial++ {
		w := randomRect(rng, 100)
		w.MaxX = w.MinX + rng.Float64()*30
		w.MaxY = w.MinY + rng.Float64()*30
		want := map[int]bool{}
		for i, r := range rects {
			if r.Intersects(w) {
				want[i] = true
			}
		}
		got := map[int]bool{}
		tr.Search(w, func(_ geom.Rect, id int) bool {
			got[id] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestInsertInvalidRect(t *testing.T) {
	tr := NewDefault[int]()
	if err := tr.Insert(geom.Rect{MinX: 2, MaxX: 1}, 0); err == nil {
		t.Error("inverted rect accepted")
	}
	if err := tr.Insert(geom.Rect{MinX: math.NaN()}, 0); err == nil {
		t.Error("NaN rect accepted")
	}
	if tr.Len() != 0 {
		t.Error("failed insert changed size")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := NewDefault[int]()
	for i := 0; i < 100; i++ {
		if err := tr.Insert(pointRect(float64(i), 0), i); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	tr.Search(geom.Rect{MinX: -1, MinY: -1, MaxX: 200, MaxY: 1}, func(_ geom.Rect, _ int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

// TestMinMaxDistMatchesLinearScan holds the k-walk — and MinMaxDist, its
// k = 1 case — to a sort-everything scan, bit for bit, on genuinely 2-D
// rectangles with degenerate ones (points, horizontal and vertical segments)
// mixed in, through both construction paths and after deletions.
func TestMinMaxDistMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(250)
		if trial%10 == 9 {
			n = 3000 // four levels at fan-out 16
		}
		rects := make([]geom.Rect, n)
		inputs := make([]Input[int], n)
		for i := range rects {
			r := randomRect(rng, 500)
			switch rng.Intn(6) {
			case 0: // point
				r.MaxX, r.MaxY = r.MinX, r.MinY
			case 1: // horizontal segment
				r.MaxY = r.MinY
			case 2: // vertical segment
				r.MaxX = r.MinX
			}
			if rng.Intn(4) == 0 { // lattice-aligned: equal MAXDISTs occur
				r = geom.Rect{MinX: math.Floor(r.MinX), MinY: math.Floor(r.MinY), MaxX: math.Ceil(r.MaxX), MaxY: math.Ceil(r.MaxY)}
			}
			rects[i] = r
			inputs[i] = Input[int]{Rect: r, Item: i}
		}
		tr := NewDefault[int]()
		if trial%2 == 0 {
			var err error
			if tr, err = BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries); err != nil {
				t.Fatal(err)
			}
		} else {
			for i, r := range rects {
				if err := tr.Insert(r, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if trial%4 == 3 { // condense and reinsert reshape the tree
			for i := 0; i < n/3; i++ {
				last := len(rects) - 1
				if !tr.Delete(rects[last], func(id int) bool { return id == last }) {
					t.Fatalf("trial %d: delete %d failed", trial, last)
				}
				rects = rects[:last]
			}
			n = len(rects)
		}
		queries := []geom.Point{
			{X: rng.Float64() * 500, Y: rng.Float64() * 500},
			rects[rng.Intn(n)].Center(),          // inside a rectangle
			{X: rects[0].MinX, Y: rects[0].MaxY}, // on a corner
			{X: -1e7, Y: 3e6},                    // far outside the extent
			{X: 250, Y: 250},                     // lattice point: ties
		}
		for _, q := range queries {
			want := make([]float64, n)
			for i, r := range rects {
				want[i] = r.MaxDist(q)
			}
			sort.Float64s(want)
			if got := tr.MinMaxDist(q); got != want[0] {
				t.Fatalf("trial %d q=%v: MinMaxDist = %g, want %g", trial, q, got, want[0])
			}
			for _, k := range []int{1, 2, 5, 64, n - 1, n, n + 3} {
				got := tr.MinMaxDists(q, make([]float64, max(k, 0)))
				wantK := want[:max(min(k, n), 0)]
				if len(got) != len(wantK) {
					t.Fatalf("trial %d q=%v k=%d: %d values, want %d", trial, q, k, len(got), len(wantK))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(wantK[i]) {
						t.Fatalf("trial %d q=%v k=%d: value %d = %v, want %v", trial, q, k, i, got[i], wantK[i])
					}
				}
			}
		}
	}
}

func TestMinMaxDistEmpty(t *testing.T) {
	tr := NewDefault[int]()
	if got := tr.MinMaxDist(geom.Point{}); !math.IsInf(got, 1) {
		t.Errorf("empty tree MinMaxDist = %g, want +Inf", got)
	}
	if got := tr.MinMaxDists(geom.Point{}, make([]float64, 3)); len(got) != 0 {
		t.Errorf("empty tree MinMaxDists = %v, want none", got)
	}
}

func TestDelete(t *testing.T) {
	tr := NewDefault[int]()
	rng := rand.New(rand.NewSource(5))
	rects := make([]geom.Rect, 400)
	for i := range rects {
		rects[i] = randomRect(rng, 100)
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half, in random order.
	perm := rng.Perm(400)
	for _, i := range perm[:200] {
		if !tr.Delete(rects[i], func(id int) bool { return id == i }) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleted items are gone; survivors remain findable.
	for _, i := range perm[:200] {
		found := false
		tr.Search(rects[i], func(_ geom.Rect, id int) bool {
			if id == i {
				found = true
				return false
			}
			return true
		})
		if found {
			t.Fatalf("deleted item %d still present", i)
		}
	}
	for _, i := range perm[200:] {
		found := false
		tr.Search(rects[i], func(_ geom.Rect, id int) bool {
			if id == i {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("surviving item %d lost", i)
		}
	}
	// Deleting a non-existent item reports false.
	if tr.Delete(pointRect(-999, -999), func(int) bool { return true }) {
		t.Error("phantom delete succeeded")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := NewDefault[int]()
	rects := make([]geom.Rect, 100)
	rng := rand.New(rand.NewSource(17))
	for i := range rects {
		rects[i] = randomRect(rng, 50)
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range rects {
		if !tr.Delete(rects[i], func(id int) bool { return id == i }) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	// Tree is reusable afterwards.
	if err := tr.Insert(pointRect(1, 1), 7); err != nil {
		t.Fatal(err)
	}
	found := false
	tr.Search(pointRect(1, 1), func(_ geom.Rect, item int) bool {
		found = item == 7
		return true
	})
	if !found || tr.Len() != 1 {
		t.Error("tree unusable after full deletion")
	}
}

func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 2000} {
		inputs := make([]Input[int], n)
		for i := range inputs {
			inputs[i] = Input[int]{Rect: randomRect(rng, 1000), Item: i}
		}
		tr, err := BulkLoad(inputs, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		// Every item must be findable.
		seen := map[int]bool{}
		tr.All(func(_ geom.Rect, id int) bool {
			seen[id] = true
			return true
		})
		if len(seen) != n {
			t.Fatalf("n=%d: All visited %d items", n, len(seen))
		}
		// MBR containment must hold even though STR nodes may be underfull
		// at boundaries; verify via search correctness instead.
		for trial := 0; trial < 10 && n > 0; trial++ {
			q := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			want := math.Inf(1)
			for _, in := range inputs {
				want = math.Min(want, in.Rect.MaxDist(q))
			}
			if got := tr.MinMaxDist(q); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d: bulk MinMaxDist = %g, want %g", n, got, want)
			}
		}
	}
}

// TestBulkLoad1DLeafOrder holds the property the paged checkpoint lays its
// payloads out by: over 1-D inputs (intervals embedded at y = 0), All visits
// a bulk-loaded tree's items in non-decreasing centre order. STR's x pass
// sorts by centre; a leaf's MBR centre lies between its first and last item
// centres, so the upper levels keep the leaves in that order; and the y pass
// sees only equal keys, which it leaves in place.
func TestBulkLoad1DLeafOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, DefaultMaxEntries, DefaultMaxEntries + 1, 300, 5000} {
			inputs := make([]Input[int], 0, n)
			for len(inputs) < n {
				lo := rng.Float64() * 1e4
				rect := geom.RectFromInterval(geom.Interval{Lo: lo, Hi: lo + rng.Float64()*25})
				// Some intervals repeat, so equal centres meet in one slice.
				for k := 1 + rng.Intn(3); k > 0 && len(inputs) < n; k-- {
					inputs = append(inputs, Input[int]{Rect: rect, Item: len(inputs)})
				}
			}
			tr, err := BulkLoad(inputs, DefaultMinEntries, DefaultMaxEntries)
			if err != nil {
				t.Fatal(err)
			}
			prev, visited := math.Inf(-1), 0
			tr.All(func(r geom.Rect, i int) bool {
				if c := r.Center().X; c < prev {
					t.Fatalf("seed %d n=%d: item %d (centre %g) visited after centre %g", seed, n, i, c, prev)
				} else {
					prev = c
				}
				visited++
				return true
			})
			if visited != n {
				t.Fatalf("seed %d n=%d: All visited %d items", seed, n, visited)
			}
		}
	}
}

func TestBulkLoadInvalid(t *testing.T) {
	if _, err := BulkLoad([]Input[int]{{Rect: geom.Rect{MinX: 1, MaxX: 0}}}, 4, 16); err == nil {
		t.Error("invalid rect accepted in bulk load")
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := NewDefault[int]()
	if tr.Height() != 1 {
		t.Errorf("empty height = %d", tr.Height())
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(randomRect(rng, 100), i); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(); h < 2 || h > 6 {
		t.Errorf("height = %d after 1000 inserts (fan-out 16)", h)
	}
}

// TestInsertDeleteProperty hammers random insert/delete sequences and checks
// size accounting and invariants throughout.
func TestInsertDeleteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewDefault[int]()
		type live struct {
			rect geom.Rect
			id   int
		}
		var items []live
		nextID := 0
		for op := 0; op < 300; op++ {
			if len(items) == 0 || rng.Float64() < 0.6 {
				r := randomRect(rng, 50)
				if err := tr.Insert(r, nextID); err != nil {
					return false
				}
				items = append(items, live{r, nextID})
				nextID++
			} else {
				k := rng.Intn(len(items))
				it := items[k]
				if !tr.Delete(it.rect, func(id int) bool { return id == it.id }) {
					return false
				}
				items = append(items[:k], items[k+1:]...)
			}
			if tr.Len() != len(items) {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOneDimensionalEmbedding(t *testing.T) {
	// The engine stores 1-D intervals as flat rects; verify distances and
	// f_min agree with direct interval math.
	tr := NewDefault[int]()
	ivs := []geom.Interval{{Lo: 0, Hi: 4}, {Lo: 10, Hi: 12}, {Lo: 3, Hi: 20}, {Lo: 30, Hi: 31}}
	for i, iv := range ivs {
		if err := tr.Insert(geom.RectFromInterval(iv), i); err != nil {
			t.Fatal(err)
		}
	}
	q := 11.0
	want := math.Inf(1)
	for _, iv := range ivs {
		want = math.Min(want, iv.MaxDist(q))
	}
	got := tr.MinMaxDist(geom.Point{X: q, Y: 0})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("1-D f_min = %g, want %g", got, want)
	}
}

// TestDegenerateRectTreeQuality pins the insertion heuristics' behavior on
// zero-area rects. 1-D intervals embed with zero height, so a pure-area
// metric makes every enlargement zero and the tree degenerates into nodes
// that all overlap each other — a containment descent (what Delete runs)
// then visits a constant fraction of the tree and commit cost scales with
// the dataset instead of the batch. The area+margin measure keeps the tree
// discriminating; this asserts the descent stays narrow on a tree built
// purely by incremental inserts.
func TestDegenerateRectTreeQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	tr := NewDefault[int]()
	rects := make([]geom.Rect, n)
	for i := range rects {
		lo := rng.Float64() * 100000
		rects[i] = geom.RectFromInterval(geom.Interval{Lo: lo, Hi: lo + 1 + rng.Float64()*20})
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	var visits func(nd *node[int], rect geom.Rect) int
	visits = func(nd *node[int], rect geom.Rect) int {
		c := 1
		if nd.leaf {
			return c
		}
		for i := range nd.entries {
			if nd.entries[i].rect.Contains(rect) {
				c += visits(nd.entries[i].child, rect)
			}
		}
		return c
	}
	total := 0
	const probes = 500
	for i := 0; i < probes; i++ {
		total += visits(tr.root, rects[rng.Intn(n)])
	}
	// A healthy tree visits O(height * small-overlap-factor) nodes; the
	// degenerate one visited ~10% of all ~21k nodes per descent.
	if avg := total / probes; avg > 8*tr.Height() {
		t.Fatalf("containment descent visits %d nodes on average (height %d): insertion heuristics degenerated", avg, tr.Height())
	}
}
