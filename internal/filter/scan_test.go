package filter

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// regionSource is a dataset of bare regions. Unlike pdf-backed objects it
// can hold zero-width regions; the index never reads a payload.
type regionSource []geom.Interval

func (r regionSource) Len() int                   { return len(r) }
func (r regionSource) Region(i int) geom.Interval { return r[i] }
func (r regionSource) PDF(int) pdf.PDF            { panic("filter: the index read a payload") }

// checkScanMatchesTree holds NewScan(ds) to NewIndex(ds) bit for bit:
// Candidates, Within at the given bounds plus f_min and +Inf, FarBounds at
// k ∈ {1, 2, 5, n+1} plus the given ks, Len and Bounds.
func checkScanMatchesTree(t *testing.T, ds *uncertain.Dataset, q float64, bounds []float64, ks ...int) {
	t.Helper()
	tree, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewScan(ds)
	n := ds.Len()
	want, got := tree.Candidates(q), scan.Candidates(q)
	if math.Float64bits(got.FMin) != math.Float64bits(want.FMin) || !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("n=%d q=%v: scan Candidates %+v, tree %+v", n, q, got, want)
	}
	for _, b := range append(bounds, want.FMin, math.Inf(1)) {
		if got, want := scan.Within(q, b), tree.Within(q, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d q=%v: scan Within(%v) = %v, tree %v", n, q, b, got, want)
		}
	}
	for _, k := range append(ks, 1, 2, 5, n+1) {
		got, want := scan.FarBounds(q, k), tree.FarBounds(q, k)
		same := (got == nil) == (want == nil) && len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = math.Float64bits(got[i]) == math.Float64bits(want[i])
		}
		if !same {
			t.Fatalf("n=%d q=%v k=%d: scan FarBounds %v, tree %v", n, q, k, got, want)
		}
	}
	if scan.Len() != tree.Len() {
		t.Fatalf("scan Len %d, tree %d", scan.Len(), tree.Len())
	}
	sb, sok := scan.Bounds()
	tb, tok := tree.Bounds()
	if sb != tb || sok != tok {
		t.Fatalf("scan Bounds %+v %v, tree %+v %v", sb, sok, tb, tok)
	}
}

// scanCase is one hand-picked scenario; FuzzScanIndex is seeded from them.
type scanCase struct {
	name     string
	q, bound float64
	k        int
	regions  []geom.Interval
}

func scanCases() []scanCase {
	iv := func(lo, hi float64) geom.Interval { return geom.Interval{Lo: lo, Hi: hi} }
	// onEdge is the one-ulp Within case PR 22 fixed: the first region's
	// near-point distance from q rounds to exactly bound while its near end
	// sits past the rounded window edge (see TestWithinRoundedWindowEdge).
	onEdge := func(name string, q, bound, lo float64) scanCase {
		r := iv(lo, lo+1)
		if lo < q {
			r = iv(lo-1, lo)
		}
		return scanCase{name: name, q: q, bound: bound, k: 2, regions: []geom.Interval{r, iv(q-0.25, q+0.25)}}
	}
	return []scanCase{
		{name: "duplicates and zero width", q: 5, bound: 1, k: 3, regions: []geom.Interval{
			iv(0, 1), iv(2, 3), iv(2, 3), iv(4, 4), iv(5, 5), iv(5, 9), iv(9, 9), iv(5, 5), iv(6, 7)}},
		{name: "q on edges", q: 3, bound: 0, k: 2, regions: []geom.Interval{iv(1, 3), iv(3, 4), iv(3, 3), iv(-2, 8)}},
		onEdge("ulp edge", 4.0104538488800365, 43.043577515506456, 47.054031364386496),
		onEdge("ulp edge cancelling low", -1e10, 1e10+1, 1+5e-7),
		onEdge("ulp edge cancelling high", 1e10, 1e10+1, -1-5e-7),
		{name: "empty", q: 3, bound: math.Inf(1), k: 1 << 40},
		{name: "coincident points", q: 0, bound: math.Inf(1), k: 7, regions: []geom.Interval{iv(0, 0), iv(0, 0), iv(0, 0)}},
	}
}

// TestScanMatchesTree holds the scan index to the R-tree on the hand-picked
// cases and on random sets with duplicate and zero-width regions, queried
// on region edges, inside regions and far outside the domain.
func TestScanMatchesTree(t *testing.T) {
	for _, c := range scanCases() {
		t.Run(c.name, func(t *testing.T) {
			checkScanMatchesTree(t, uncertain.NewBackedDataset(regionSource(c.regions)), c.q, []float64{c.bound}, c.k)
		})
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		regions := make(regionSource, n)
		for i := range regions {
			switch {
			case i > 0 && rng.Intn(5) == 0:
				regions[i] = regions[rng.Intn(i)] // duplicate
			default:
				lo := math.Floor((rng.Float64()-0.5)*100) / 2
				regions[i] = geom.Interval{Lo: lo, Hi: lo + float64(rng.Intn(4))/2} // 0 is zero width
			}
		}
		ds := uncertain.NewBackedDataset(regions)
		qs := []float64{(rng.Float64() - 0.5) * 120, 1e9, -1e9}
		if n > 0 {
			r := regions[rng.Intn(n)]
			qs = append(qs, r.Lo, r.Hi, r.Center())
		}
		for _, q := range qs {
			checkScanMatchesTree(t, ds, q, []float64{rng.Float64() * 10, 0, -1})
		}
	}
}

// TestScanRefusesMutation: a scan index has no tree, so every mutator
// answers with an error rather than dereferencing one.
func TestScanRefusesMutation(t *testing.T) {
	ds := mkDataset([][2]float64{{0, 1}, {2, 3}})
	ix := NewScan(ds)
	if err := ix.Insert(uncertain.Object{ID: 2, PDF: pdf.MustUniform(4, 5)}); err == nil {
		t.Fatal("Insert on a scan index succeeded")
	}
	if _, err := ix.Delete(ds.Object(0)); err == nil {
		t.Fatal("Delete on a scan index succeeded")
	}
	if _, err := ix.Apply(ds, nil); err == nil {
		t.Fatal("Apply on a scan index succeeded")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d after refused mutations", ix.Len())
	}
}

// FuzzScanIndex decodes bytes into k, q, a bound and regions (zero width and
// duplicates included) and holds the scan index to the R-tree on them.
func FuzzScanIndex(f *testing.F) {
	for _, c := range scanCases() {
		buf := binary.LittleEndian.AppendUint64(nil, uint64(c.k))
		vals := []float64{c.q, c.bound}
		for _, r := range c.regions {
			vals = append(vals, r.Lo, r.Hi)
		}
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 24 {
			return
		}
		k := int(binary.LittleEndian.Uint64(data) % (1 << 41))
		val := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
		finite := func(v float64) bool { return !math.IsNaN(v) && math.Abs(v) <= 1e12 }
		q, bound := val(data[8:]), val(data[16:])
		if !finite(q) || math.IsNaN(bound) {
			return
		}
		var regions regionSource
		for rest := data[24:]; len(rest) >= 16 && len(regions) < 600; rest = rest[16:] {
			lo, hi := val(rest), val(rest[8:])
			if !finite(lo) || !finite(hi) {
				return
			}
			regions = append(regions, geom.Interval{Lo: min(lo, hi), Hi: max(lo, hi)})
		}
		checkScanMatchesTree(t, uncertain.NewBackedDataset(regions), q, []float64{bound}, k)
	})
}
