package filter

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func mkDataset(intervals [][2]float64) *uncertain.Dataset {
	pdfs := make([]pdf.PDF, len(intervals))
	for i, iv := range intervals {
		pdfs[i] = pdf.MustUniform(iv[0], iv[1])
	}
	return uncertain.NewDataset(pdfs)
}

func TestCandidatesHandExample(t *testing.T) {
	// Objects around q=10. Far points: A:8 (f=8? |10-2|=8, |10-6|=4 -> 8),
	// B:[9,11] -> far 1, C:[12,13] -> far 3, D:[30,40] -> far 30.
	// f_min = 1 (object B). Candidates: near point <= 1:
	// A near = 4 -> out; B near = 0 -> in; C near = 2 -> out; D near 20 -> out.
	ds := mkDataset([][2]float64{{2, 6}, {9, 11}, {12, 13}, {30, 40}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Candidates(10)
	if math.Abs(res.FMin-1) > 1e-12 {
		t.Fatalf("FMin = %g, want 1", res.FMin)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 1 {
		t.Fatalf("IDs = %v, want [1]", res.IDs)
	}
}

func TestCandidatesOverlapping(t *testing.T) {
	// Heavily overlapping regions: everyone is a candidate.
	ds := mkDataset([][2]float64{{0, 10}, {1, 9}, {2, 8}, {3, 7}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Candidates(5)
	if len(res.IDs) != 4 {
		t.Fatalf("IDs = %v, want all four", res.IDs)
	}
	// f_min = far point of [3,7] from 5 = 2.
	if math.Abs(res.FMin-2) > 1e-12 {
		t.Errorf("FMin = %g, want 2", res.FMin)
	}
}

// TestCandidatesMatchLinear holds the R-tree to the linear scan a router
// serves its gathered candidates through (NewScan), bit for bit.
func TestCandidatesMatchLinear(t *testing.T) {
	opt := uncertain.GenOptions{N: 3000, Domain: 5000, MeanLen: 12, MinLen: 0.5, MaxLen: 60, Seed: 77}
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewScan(ds)
	for _, q := range uncertain.QueryWorkload(25, opt.Domain, 123) {
		got, want := ix.Candidates(q), scan.Candidates(q)
		if math.Float64bits(got.FMin) != math.Float64bits(want.FMin) {
			t.Fatalf("q=%g: FMin %g vs %g", q, got.FMin, want.FMin)
		}
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("q=%g: candidates %v vs %v", q, got.IDs, want.IDs)
		}
	}
}

func TestCandidatesEmpty(t *testing.T) {
	ds := uncertain.NewDataset(nil)
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Candidates(5)
	if len(res.IDs) != 0 {
		t.Error("empty dataset produced candidates")
	}
	if lin := NewScan(ds).Candidates(5); len(lin.IDs) != 0 {
		t.Error("scan on empty dataset produced candidates")
	}
}

func TestCandidatesSingleObject(t *testing.T) {
	ds := mkDataset([][2]float64{{5, 8}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Candidates(100)
	if len(res.IDs) != 1 || res.IDs[0] != 0 {
		t.Fatalf("IDs = %v", res.IDs)
	}
	if math.Abs(res.FMin-95) > 1e-12 {
		t.Errorf("FMin = %g, want 95", res.FMin)
	}
}

func TestInsertKeepsIndexConsistent(t *testing.T) {
	ds := mkDataset([][2]float64{{0, 2}, {10, 12}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A new tight object right at the query point shrinks f_min so the old
	// candidates are pruned.
	if err := ix.Insert(uncertain.Object{ID: 2, PDF: pdf.MustUniform(5.9, 6.1)}); err != nil {
		t.Fatal(err)
	}
	res := ix.Candidates(6)
	if len(res.IDs) != 1 || res.IDs[0] != 2 {
		t.Fatalf("IDs = %v, want [2]", res.IDs)
	}
}

func TestCandidateSetSizeLongBeachScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long-beach-scale generation in -short mode")
	}
	// Calibration check for the paper's §V-A figure of ~96 candidates.
	opt := uncertain.LongBeachOptions(5)
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	queries := uncertain.QueryWorkload(50, opt.Domain, 99)
	for _, q := range queries {
		total += len(ix.Candidates(q).IDs)
	}
	avg := float64(total) / float64(len(queries))
	if avg < 40 || avg > 220 {
		t.Errorf("average candidate-set size %g too far from the paper's ~96", avg)
	}
	t.Logf("average candidate-set size: %.1f (paper: ~96)", avg)
}

// checkWithin holds Within(q, bound) to the linear predicate it documents —
// exactly the regions with MinDist(q) <= bound, ascending — which is what
// the scan index evaluates.
func checkWithin(t *testing.T, ds *uncertain.Dataset, q, bound float64) {
	t.Helper()
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := NewScan(ds).Within(q, bound)
	if got := ix.Within(q, bound); !reflect.DeepEqual(got, want) {
		t.Fatalf("Within(%v, %v) = %v, linear predicate keeps %v", q, bound, got, want)
	}
}

// TestWithinRoundedWindowEdge pins the cases a window of [q-bound, q+bound]
// loses: the region's near-point distance rounds to exactly bound while its
// end-point sits past the rounded window edge. The second case is why the
// radius is widened and not the edges: under cancellation (|q+bound| far
// below |q|) the region sits ~2e9 ulps of the edge beyond it.
func TestWithinRoundedWindowEdge(t *testing.T) {
	for _, c := range []struct{ q, bound, lo float64 }{
		{4.0104538488800365, 43.043577515506456, 47.054031364386496},
		{-1e10, 1e10 + 1, 1 + 5e-7},
		{1e10, 1e10 + 1, -1 - 5e-7},
	} {
		iv := [2]float64{c.lo, c.lo + 1}
		if c.lo < c.q {
			iv = [2]float64{c.lo - 1, c.lo} // the near point is the upper end
		}
		ds := mkDataset([][2]float64{iv, {c.q - 0.25, c.q + 0.25}})
		if d := ds.Region(0).MinDist(c.q); d != c.bound {
			t.Fatalf("case %+v is not on the edge: MinDist = %v", c, d)
		}
		checkWithin(t, ds, c.q, c.bound)
	}
}

// TestWithinMatchesLinearAtUlpEdges is the randomized form: regions whose
// near end-point lies within a few ulps of either window edge, at magnitudes
// from well-conditioned to cancelling, plus filler on both sides.
func TestWithinMatchesLinearAtUlpEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nudge := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	for trial := 0; trial < 2000; trial++ {
		scale := math.Pow(10, float64(rng.Intn(9)-2))
		q := (rng.Float64() - 0.5) * 200 * scale
		bound := rng.Float64() * 100 * math.Pow(10, float64(rng.Intn(9)-2))
		var ivs [][2]float64
		for u := -4; u <= 4; u++ {
			lo := nudge(q+bound, u)
			hi := nudge(q-bound, u)
			ivs = append(ivs, [2]float64{lo, lo + 1 + math.Abs(lo)}, [2]float64{hi - 1 - math.Abs(hi), hi})
		}
		for i := 0; i < 20; i++ {
			lo := q + (rng.Float64()-0.5)*4*bound
			ivs = append(ivs, [2]float64{lo, lo + (1+rng.Float64())*(1+math.Abs(lo))})
		}
		checkWithin(t, mkDataset(ivs), q, bound)
	}
}

// TestAppendWithinNoAlloc: AppendWithin and AppendCandidates append exactly
// Within's and Candidates' IDs, as hits, after whatever dst already holds,
// on the R-tree and on the scan index, and appending into a buffer with room
// allocates nothing — a query filters into its scratch's hit list (not
// checked under -race, whose instrumentation moves the tree search's
// closure to the heap).
func TestAppendWithinNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	intervals := make([][2]float64, 3000)
	for i := range intervals {
		lo := rng.Float64() * 1000
		intervals[i] = [2]float64{lo, lo + 0.5 + rng.Float64()*20}
	}
	ds := mkDataset(intervals)
	tree, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []Hit{{ID: -7}, {ID: 1 << 40, Region: geom.Interval{Lo: 1, Hi: 2}}, {ID: 3}}
	for _, ix := range []struct {
		name string
		*Index
	}{{"tree", tree}, {"scan", NewScan(ds)}} {
		buf := make([]Hit, 0, len(prefix)+ds.Len())
		for trial := 0; trial < 50; trial++ {
			q := rng.Float64()*1100 - 50
			fr := ix.Candidates(q)
			got, fMin := ix.AppendCandidates(append(buf[:0], prefix...), q)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(hitIDs(got[len(prefix):]), fr.IDs) ||
				math.Float64bits(fMin) != math.Float64bits(fr.FMin) {
				t.Fatalf("%s q=%g: AppendCandidates %+v (f_min %g), want %v then %+v", ix.name, q, got, fMin, prefix, fr)
			}
			for _, bound := range []float64{0, fr.FMin, rng.Float64() * 40} {
				want := ix.Within(q, bound)
				if !slices.IsSorted(want) {
					t.Fatalf("%s q=%g bound=%g: Within %v not ascending", ix.name, q, bound, want)
				}
				got := ix.AppendWithin(append(buf[:0], prefix...), q, bound)
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(hitIDs(got[len(prefix):]), want) {
					t.Fatalf("%s q=%g bound=%g: AppendWithin %v, want %v then %v", ix.name, q, bound, got, prefix, want)
				}
			}
			if raceEnabled {
				continue // the race detector moves the search closure to the heap
			}
			allocs := testing.AllocsPerRun(20, func() {
				buf = ix.AppendWithin(buf[:1], q, fr.FMin+5)
				buf, _ = ix.AppendCandidates(buf[:0], q)
			})
			if allocs != 0 {
				t.Fatalf("%s q=%g: appending into a buffer with room allocates %g objects, want 0", ix.name, q, allocs)
			}
		}
	}
}

// TestSortHits: sortHits orders hits by ID as a sort of the IDs does, and
// keeps each hit's region with its ID, on the input shapes that defeat a
// naive quicksort (sorted, reversed, organ-pipe, all equal, few distinct)
// as well as random ones, at sizes around the insertion-sort cutoff and
// well past it.
func TestSortHits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := map[string]func(i, n int) int{
		"random":     func(_, _ int) int { return rng.Intn(1 << 30) },
		"sorted":     func(i, _ int) int { return i },
		"reversed":   func(i, n int) int { return n - i },
		"organ-pipe": func(i, n int) int { return min(i, n-i) },
		"equal":      func(_, _ int) int { return 7 },
		"few":        func(_, _ int) int { return rng.Intn(4) },
	}
	for name, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 11, 12, 13, 40, 257, 3000} {
			h := make([]Hit, n)
			for i := range h {
				id := shape(i, n)
				h[i] = Hit{ID: id, Region: geom.Interval{Lo: float64(id), Hi: float64(id) + 1}}
			}
			want := slices.Clone(h)
			slices.SortStableFunc(want, func(a, b Hit) int { return a.ID - b.ID })
			sortHits(h)
			if !slices.Equal(h, want) {
				t.Fatalf("%s n=%d: sortHits disagrees with a stable sort by ID", name, n)
			}
		}
	}
}
