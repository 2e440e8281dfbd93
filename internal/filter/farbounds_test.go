package filter

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// TestFarBounds checks the scatter-phase primitive against brute force: the
// k smallest far-point distances, ascending, clamped to the population.
func TestFarBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		pdfs := make([]pdf.PDF, n)
		for i := range pdfs {
			lo := (rng.Float64() - 0.5) * 200
			pdfs[i] = pdf.MustUniform(lo, lo+rng.Float64()*30)
		}
		ds := uncertain.NewDataset(pdfs)
		ix, err := NewIndex(ds)
		if err != nil {
			t.Fatal(err)
		}
		q := (rng.Float64() - 0.5) * 300
		want := make([]float64, 0, n)
		for _, o := range ds.Objects() {
			want = append(want, o.Region().MaxDist(q))
		}
		sort.Float64s(want)
		for _, k := range []int{0, 1, 2, 5, n, n + 3} {
			got := ix.FarBounds(q, k)
			wantK := want
			if k < 1 || n == 0 {
				wantK = nil
			} else if k < n {
				wantK = want[:k]
			}
			if len(got) != len(wantK) {
				t.Fatalf("n=%d k=%d: got %d bounds, want %d", n, k, len(got), len(wantK))
			}
			for i := range got {
				if got[i] != wantK[i] {
					t.Fatalf("n=%d k=%d: bound[%d] = %g, want %g", n, k, i, got[i], wantK[i])
				}
			}
			if !sort.Float64sAreSorted(got) {
				t.Fatalf("bounds not ascending: %v", got)
			}
			for _, b := range got {
				if math.IsNaN(b) {
					t.Fatalf("NaN bound for finite regions")
				}
			}
		}
	}
}
