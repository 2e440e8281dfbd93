package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/store"
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
func (s failingSource) candidates(_ float64, _ int, buf []filter.Hit) ([]filter.Hit, float64) {
	for i := range s.n {
		buf = append(buf, filter.Hit{ID: i})
	}
	return buf, 1
}
func (failingSource) id(h filter.Hit) int { return 1000 + h.ID }
func (failingSource) dist(h filter.Hit, _ float64, _ int, a *pdf.Alloc) (*pdf.Histogram, error) {
	if h.ID%7 == 3 {
		return nil, errDeriveSentinel
	}
	return a.NewHistogram([]float64{0, 1}, []float64{1})
}

// TestDeriveSetPropagatesError: derivation runs in order and stops at the
// first failing candidate, whose ID the wrapped error names; the entry
// points surface it, and the scratch serves the next query as usual.
func TestDeriveSetPropagatesError(t *testing.T) {
	p := &pipeline[float64]{src: failingSource{n: 100}}
	pos, _ := p.src.candidates(0, 1, nil)
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
		hits := make([]filter.Hit, n)
		for i := range hits {
			hits[i] = filter.Hit{ID: i, Region: ds.Region(i)}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Pre-warm the memo and the scratch: steady-state queries pay
			// only the folds.
			sc := new(queryScratch)
			if _, err := eng.derive(sc, hits, 25.0, dist.DefaultBins); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.derive(sc, hits, 25.0, dist.DefaultBins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHitDerivationMatchesPDF: a candidate derived through its filter hit —
// a uniform object folded from the hit's region, any other through the
// memo — is the histogram dist.FromPDF derives from the object's own pdf,
// edges and bin weights equal under ==. It covers uniform, histogram,
// discretized-Gaussian, analytic-Gaussian and mixed datasets at k = 1, 3
// and 10, on a tree index, a scan index and a store view (whose dataset is
// Source-backed, so every object takes the pdf path there).
func TestHitDerivationMatchesPDF(t *testing.T) {
	opt := uncertain.GenOptions{N: 400, Domain: 1000, MeanLen: 8, MinLen: 0.5, MaxLen: 40, Seed: 43}
	gen := map[string]func() (*uncertain.Dataset, error){
		"uniform":   func() (*uncertain.Dataset, error) { return uncertain.GenerateUniform(opt) },
		"histogram": func() (*uncertain.Dataset, error) { return uncertain.GenerateHistogram(opt, 6) },
		"gaussian":  func() (*uncertain.Dataset, error) { return uncertain.GenerateGaussian(opt, 20) },
		"analytic":  func() (*uncertain.Dataset, error) { return uncertain.GenerateGaussianAnalytic(opt) },
	}
	sets := map[string]*uncertain.Dataset{}
	mixed := make([]pdf.PDF, opt.N)
	for i, name := range []string{"uniform", "histogram", "gaussian", "analytic"} {
		ds, err := gen[name]()
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = ds
		for j := i; j < opt.N; j += 4 {
			mixed[j] = ds.Object(j).PDF
		}
	}
	sets["mixed"] = uncertain.NewDataset(mixed)

	rng := rand.New(rand.NewSource(43))
	for name, ds := range sets {
		engines := map[string]*Engine{}
		var err error
		if engines["tree"], err = NewEngine(ds); err != nil {
			t.Fatal(err)
		}
		if engines["scan"], err = NewEngineWithIndex(ds, filter.NewScan(ds)); err != nil {
			t.Fatal(err)
		}
		if name != "analytic" && name != "mixed" { // the store logs uniform and histogram pdfs only
			st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ops, err := store.DatasetOps(ds)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Apply(ops); err != nil {
				t.Fatal(err)
			}
			v := st.View()
			if engines["store"], err = NewEngineWithIndex(v.Dataset, v.Index); err != nil {
				t.Fatal(err)
			}
		}
		for ixName, eng := range engines {
			for _, k := range []int{1, 3, 10} {
				for probe := 0; probe < 20; probe++ {
					q := 50 + rng.Float64()*900
					checkHitDerivation(t, fmt.Sprintf("%s/%s k=%d q=%g", name, ixName, k, q), eng, q, k)
				}
			}
		}
	}
}

// checkHitDerivation derives eng's candidates for q at filter depth k as a
// query does and compares each with dist.FromPDF over the object's pdf.
func checkHitDerivation(t *testing.T, what string, eng *Engine, q float64, k int) {
	t.Helper()
	sc := borrow()
	defer sc.park()
	var st Stats
	cands, _, err := eng.prepare(q, k, dist.DefaultBins, false, sc, &st)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(cands) < k {
		t.Fatalf("%s: %d candidates", what, len(cands))
	}
	for _, c := range cands {
		want, err := dist.FromPDF(eng.ds.Object(c.ID).PDF, q)
		if err != nil {
			t.Fatalf("%s: object %d: %v", what, c.ID, err)
		}
		got := c.Dist
		same := slices.Equal(got.Edges(), want.Edges()) && got.NumBins() == want.NumBins()
		for i := 0; same && i < got.NumBins(); i++ {
			same = got.BinDensity(i) == want.BinDensity(i) && got.BinMass(i) == want.BinMass(i)
		}
		if !same {
			t.Fatalf("%s: object %d (%T) derives %v, its pdf %v", what, c.ID, eng.ds.Object(c.ID).PDF, got.Edges(), want.Edges())
		}
	}
}
