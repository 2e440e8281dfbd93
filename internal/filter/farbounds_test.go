package filter

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// checkFarBounds holds ix.FarBounds(q, k) to the sort-everything reference it
// replaced, bit for bit, for every k worth asking: below, at and beyond the
// population, the unbounded value a hostile ?k= can carry, and any extra ks.
func checkFarBounds(t *testing.T, label string, ix *Index, regions []geom.Interval, q float64, ks ...int) {
	t.Helper()
	n := len(regions)
	want := make([]float64, n)
	for i, r := range regions {
		want[i] = r.MaxDist(q)
	}
	sort.Float64s(want)
	for _, k := range append(ks, -1, 0, 1, 2, 5, 64, n-1, n, n+3, 1<<40) {
		got := ix.FarBounds(q, k)
		if k < 1 || n == 0 {
			if got != nil {
				t.Fatalf("%s n=%d q=%v k=%d: got %v, want nil", label, n, q, k, got)
			}
			continue
		}
		wantK := want[:min(k, n)]
		if len(got) != len(wantK) {
			t.Fatalf("%s n=%d q=%v k=%d: got %d bounds, want %d", label, n, q, k, len(got), len(wantK))
		}
		if cap(got) > n {
			t.Fatalf("%s n=%d k=%d: result sized by the unclamped k (cap %d)", label, n, k, cap(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantK[i]) {
				t.Fatalf("%s n=%d q=%v k=%d: bound[%d] = %v, want %v", label, n, q, k, i, got[i], wantK[i])
			}
		}
	}
}

// probePoints returns the query points every FarBounds scenario is run at:
// a random one, one strictly inside a region, one on an end-point, one on the
// integer lattice (where lattice-aligned regions tie) and two far outside the
// domain.
func probePoints(rng *rand.Rand, regions []geom.Interval) []float64 {
	qs := []float64{(rng.Float64() - 0.5) * 300, 50, -1e9, 3e12}
	if len(regions) > 0 {
		qs = append(qs, regions[rng.Intn(len(regions))].Center(), regions[rng.Intn(len(regions))].Lo,
			regions[rng.Intn(len(regions))].Hi)
	}
	return qs
}

func supports(pdfs []pdf.PDF) []geom.Interval {
	out := make([]geom.Interval, len(pdfs))
	for i, p := range pdfs {
		out[i] = p.Support()
	}
	return out
}

// TestFarBounds checks the scatter-phase primitive against brute force on
// bulk-loaded trees of one to four levels: the k smallest far-point
// distances, ascending, clamped to the population, ties all present.
func TestFarBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 16, 17, 300, 5000}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(40)
		if trial < len(sizes) {
			n = sizes[trial]
		}
		pdfs := make([]pdf.PDF, n)
		for i := range pdfs {
			lo, ln := (rng.Float64()-0.5)*200, rng.Float64()*30
			if trial%2 == 1 {
				// Lattice-aligned, a few lengths: many objects share a far
				// point distance from a lattice q, and some coincide outright.
				lo, ln = math.Floor(lo/4)*4, float64(1+rng.Intn(3))
			}
			pdfs[i] = pdf.MustUniform(lo, lo+ln)
		}
		ix, err := NewIndex(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		regions := supports(pdfs)
		for _, q := range probePoints(rng, regions) {
			checkFarBounds(t, "bulk", ix, regions, q)
		}
	}
}

// TestFarBoundsAfterEdits runs the same check on the trees a store actually
// serves: a bulk-loaded index carried forward through Apply edit streams
// (path-copied inserts, deletes, condense-and-reinsert), and a COW clone
// mutated through Insert/Delete while the original keeps answering for the
// original objects.
func TestFarBoundsAfterEdits(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pdfs := make([]pdf.PDF, 2000)
		for i := range pdfs {
			lo := rng.Float64() * 100
			pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*5)
		}
		base, err := NewIndex(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		ix, cur := base, pdfs
		for round := 0; round < 4; round++ {
			next, edits := applyScenario(rng, cur, 100)
			ds := uncertain.NewDataset(next)
			if float64(len(edits)) >= rebuildFraction*float64(ds.Len())+1 {
				t.Fatalf("seed %d: %d edits would bulk-rebuild; the scenario must stay incremental", seed, len(edits))
			}
			if ix, err = ix.Apply(ds, edits); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			cur = next
			regions := supports(cur)
			for _, q := range probePoints(rng, regions) {
				checkFarBounds(t, "applied", ix, regions, q)
			}
		}

		clone := &Index{tree: base.tree.Clone(), ds: base.ds}
		orig, regions := supports(pdfs), supports(pdfs)
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				lo := rng.Float64() * 100
				o := uncertain.Object{ID: len(pdfs) + i, PDF: pdf.MustUniform(lo, lo+1+rng.Float64()*5)}
				if err := clone.Insert(o); err != nil {
					t.Fatal(err)
				}
				regions = append(regions, o.Region())
				continue
			}
			// Victims are original objects, whose dense ID is their slot.
			victim := rng.Intn(len(pdfs))
			if found, err := clone.Delete(base.ds.Object(victim)); err != nil {
				t.Fatal(err)
			} else if !found {
				continue // already deleted
			}
			for j, r := range regions {
				if r == pdfs[victim].Support() {
					regions = append(regions[:j], regions[j+1:]...)
					break
				}
			}
		}
		for _, q := range probePoints(rng, regions) {
			checkFarBounds(t, "clone", clone, regions, q)
			checkFarBounds(t, "original", base, orig, q)
		}
	}
}

// FuzzFarBounds decodes bytes into intervals, a query point and a depth, and
// holds the walk to brute force on whatever tree shape falls out — including
// after the same bytes delete every third object.
func FuzzFarBounds(f *testing.F) {
	seed := func(k uint64, q float64, vals ...float64) {
		buf := binary.LittleEndian.AppendUint64(nil, k)
		for _, v := range append([]float64{q}, vals...) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		f.Add(buf)
	}
	seed(1, 5, 0, 1, 2, 3, 4, 5)
	seed(3, -7.5, 1, 1, 1, 1, 1, 1, 1, 1)
	seed(1<<40, 1e9, -3, 0.5, 10, 2)
	seed(0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		k := int(binary.LittleEndian.Uint64(data) % (1 << 41))
		finite := func(b []byte) (float64, bool) {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			return v, !math.IsNaN(v) && math.Abs(v) <= 1e12
		}
		q, ok := finite(data[8:])
		if !ok {
			return
		}
		var pdfs []pdf.PDF
		for rest := data[16:]; len(rest) >= 16 && len(pdfs) < 600; rest = rest[16:] {
			lo, okLo := finite(rest)
			ln, okLn := finite(rest[8:])
			if !okLo || !okLn {
				return
			}
			u, err := pdf.NewUniform(lo, lo+math.Abs(ln))
			if err != nil {
				return // zero length (or absorbed by a huge lo)
			}
			pdfs = append(pdfs, u)
		}
		ds := uncertain.NewDataset(pdfs)
		ix, err := NewIndex(ds)
		if err != nil {
			t.Fatal(err)
		}
		regions := supports(pdfs)
		checkFarBounds(t, "fuzz", ix, regions, q, k)
		var kept []geom.Interval
		for i, o := range ds.Objects() {
			if i%3 == 0 {
				if found, err := ix.Delete(o); err != nil || !found {
					t.Fatalf("delete %d: found=%v err=%v", i, found, err)
				}
				continue
			}
			kept = append(kept, o.Region())
		}
		checkFarBounds(t, "fuzz-deleted", ix, kept, q, k)
	})
}

var sinkFars []float64

// BenchmarkFarBounds shows the walk's shape rather than one point: cost
// against population and depth, the k = n column being the scan-and-sort
// ceiling the walk must never exceed. Queries cycle over the workload so no
// single root-to-leaf path stays hot.
func BenchmarkFarBounds(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		opt := uncertain.LongBeachOptions(1)
		opt.N = n
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := NewIndex(ds)
		if err != nil {
			b.Fatal(err)
		}
		qs := uncertain.QueryWorkload(256, opt.Domain, 42)
		for _, k := range []int{1, 3, 10, 100, n} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkFars = ix.FarBounds(qs[i%len(qs)], k)
				}
			})
		}
	}
}
