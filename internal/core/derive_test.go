package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
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

// failingSource serves n positions whose derivation fails at every
// position ≡ 3 (mod 7).
type failingSource struct{ n int }

var errDeriveSentinel = errors.New("boom")

func (failingSource) check(float64) error { return nil }
func (s failingSource) candidates(float64) ([]int, float64) {
	pos := make([]int, s.n)
	for i := range pos {
		pos[i] = i
	}
	return pos, 1
}
func (failingSource) id(pos int) int { return 1000 + pos }
func (failingSource) dist(pos int, _ float64, _ int, a *pdf.Alloc) (*pdf.Histogram, error) {
	if pos%7 == 3 {
		return nil, errDeriveSentinel
	}
	return a.NewHistogram([]float64{0, 1}, []float64{1})
}

// TestDeriveSetPropagatesError: derivation runs in order and stops at the
// first failing candidate, whose ID the wrapped error names; the entry
// points surface it, and the scratch serves the next query as usual.
func TestDeriveSetPropagatesError(t *testing.T) {
	p := &pipeline[float64]{src: failingSource{n: 100}}
	pos, _ := p.src.candidates(0)
	sc := new(queryScratch)
	_, err := p.derive(sc, pos, 0, 0)
	if !errors.Is(err, errDeriveSentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "object 1003:") {
		t.Fatalf("err = %v, want it to name object 1003, the first failure", err)
	}
	if _, err := p.CPNN(0, verify.Constraint{P: 0.3, Delta: 0.01}, Options{}); !errors.Is(err, errDeriveSentinel) {
		t.Fatalf("CPNN err = %v, want wrapped sentinel", err)
	}
	cands, err := p.derive(sc, pos[:3], 0, 0)
	if err != nil || len(cands) != 3 || cands[2].ID != 1002 {
		t.Fatalf("derive after a failure: %d candidates, err %v", len(cands), err)
	}
}

func TestDiscretizeMemoized(t *testing.T) {
	ds := gaussianDataset(t, 4, 3)
	var dv deriver
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
	eng.memo.mu.Lock()
	memo := len(eng.memo.disc)
	eng.memo.mu.Unlock()
	if memo == 0 {
		t.Error("no discretizations memoized across a Gaussian workload")
	}
	if memo > ds.Len() {
		t.Errorf("%d memo entries for %d objects at one resolution", memo, ds.Len())
	}
}

// BenchmarkDeriveCandidates tracks the candidate-derivation stage — the
// initialization cost the paper charges to verification (InitTime) — as a
// query runs it: in-line, into a warm scratch's arena.
func BenchmarkDeriveCandidates(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		ds := gaussianDataset(b, n, 5)
		eng, err := NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Pre-warm the memo and the scratch: steady-state queries pay
			// only the folds.
			sc := new(queryScratch)
			if _, err := eng.derive(sc, ids, 25.0, dist.DefaultBins); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.derive(sc, ids, 25.0, dist.DefaultBins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
