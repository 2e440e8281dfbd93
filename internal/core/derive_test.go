package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/subregion"
	"repro/internal/uncertain"
)

// gaussianDataset builds nObj truncated-Gaussian objects clustered around a
// usable query range.
func gaussianDataset(t testing.TB, nObj int, seed int64) *uncertain.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pdfs := make([]pdf.PDF, nObj)
	for i := range pdfs {
		lo := rng.Float64() * 50
		g, err := pdf.PaperGaussian(lo, lo+2+rng.Float64()*10)
		if err != nil {
			t.Fatal(err)
		}
		pdfs[i] = g
	}
	return uncertain.NewDataset(pdfs)
}

func TestDeriveSetMatchesSerial(t *testing.T) {
	ds := gaussianDataset(t, 64, 11)
	ids := make([]int, ds.Len())
	for i := range ids {
		ids[i] = i
	}
	q := 25.0

	parallel := newDeriver()
	parallel.workers = 4 // force the pool path even on single-core hosts
	serial := newDeriver()
	serial.workers = 1

	fn := func(dv *deriver) func(int) (subregion.Candidate, error) {
		return func(pos int) (subregion.Candidate, error) {
			h, err := dv.distFor(ds.Object(ids[pos]), q, dist.DefaultBins, nil)
			return subregion.Candidate{ID: ids[pos], Dist: h}, err
		}
	}
	got, err := parallel.deriveSet(nil, len(ids), false, fn(parallel))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.deriveSet(nil, len(ids), false, fn(serial))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel derived %d candidates, serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("candidate %d: ID %d vs %d — input order not preserved", i, got[i].ID, want[i].ID)
		}
		ge, we := got[i].Dist.Edges(), want[i].Dist.Edges()
		if len(ge) != len(we) {
			t.Fatalf("candidate %d: %d vs %d edges", i, len(ge), len(we))
		}
		for j := range ge {
			if ge[j] != we[j] {
				t.Fatalf("candidate %d edge %d: %g vs %g", i, j, ge[j], we[j])
			}
		}
		for j := 0; j < got[i].Dist.NumBins(); j++ {
			if math.Abs(got[i].Dist.BinMass(j)-want[i].Dist.BinMass(j)) > 1e-15 {
				t.Fatalf("candidate %d bin %d mass differs", i, j)
			}
		}
	}
}

func TestDeriveSetPropagatesError(t *testing.T) {
	dv := newDeriver()
	dv.workers = 4 // force the pool path even on single-core hosts
	sentinel := errors.New("boom")
	_, err := dv.deriveSet(nil, 100, false, func(pos int) (subregion.Candidate, error) {
		if pos%7 == 3 {
			return subregion.Candidate{}, sentinel
		}
		h, err := pdf.NewHistogram([]float64{0, 1}, []float64{1})
		return subregion.Candidate{ID: pos, Dist: h}, err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestDiscretizeMemoized(t *testing.T) {
	ds := gaussianDataset(t, 4, 3)
	dv := newDeriver()
	obj := ds.Object(2)
	a, err := dv.discretize(obj.ID, obj.PDF, dist.DefaultBins)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dv.discretize(obj.ID, obj.PDF, dist.DefaultBins)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated discretization not memoized (different histograms returned)")
	}
	c, err := dv.discretize(obj.ID, obj.PDF, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different resolutions share one memo entry")
	}
}

// TestEnginesShareDerivationAcrossQueries: the memo must survive across
// queries of one engine, so a Gaussian workload discretizes each object once.
func TestEnginesShareDerivationAcrossQueries(t *testing.T) {
	ds := gaussianDataset(t, 32, 19)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{10, 20, 30} {
		if _, _, err := eng.PNN(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.dv.mu.Lock()
	memo := len(eng.dv.disc)
	eng.dv.mu.Unlock()
	if memo == 0 {
		t.Error("no discretizations memoized across a Gaussian workload")
	}
	if memo > ds.Len() {
		t.Errorf("%d memo entries for %d objects at one resolution", memo, ds.Len())
	}
}

// BenchmarkDeriveCandidates tracks the parallel candidate-derivation stage —
// the initialization cost the paper charges to verification (InitTime).
func BenchmarkDeriveCandidates(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		ds := gaussianDataset(b, n, 5)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		for _, mode := range []string{"serial", "parallel"} {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				dv := newDeriver()
				if mode == "serial" {
					dv.workers = 1
				}
				// Pre-warm the memo: steady-state queries pay only the folds.
				for _, id := range ids {
					if _, err := dv.discretize(id, ds.Object(id).PDF, dist.DefaultBins); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := dv.deriveSet(nil, n, false, func(pos int) (subregion.Candidate, error) {
						h, err := dv.distFor(ds.Object(ids[pos]), 25.0, dist.DefaultBins, nil)
						return subregion.Candidate{ID: ids[pos], Dist: h}, err
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
