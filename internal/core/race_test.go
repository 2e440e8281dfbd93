package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// mixedDataset builds a dataset with all three pdf families so concurrent
// queries exercise every derivation path, in particular the memoized
// discretization of analytic Gaussians in deriver.discretize.
func mixedDataset(t testing.TB, n int) *uncertain.Dataset {
	t.Helper()
	pdfs := make([]pdf.PDF, n)
	for i := range pdfs {
		lo := float64(i % 97)
		hi := lo + 2 + float64(i%5)
		switch i % 3 {
		case 0:
			pdfs[i] = pdf.MustUniform(lo, hi)
		case 1:
			g, err := pdf.PaperGaussian(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			pdfs[i] = g
		default:
			mid := lo + (hi-lo)/2
			pdfs[i] = pdf.MustHistogram([]float64{lo, mid, hi}, []float64{1, 2})
		}
	}
	return uncertain.NewDataset(pdfs)
}

// TestEngineConcurrentQueries fires parallel CPNN / PNN / CKNN / Min / Max
// traffic at one shared engine and checks every concurrent result against a
// serial baseline. Run under -race it is the engine's thread-safety contract:
// the only mutable engine state (the discretization memo, the quadrature
// cache) must be properly synchronized, and results must not depend on
// interleaving.
func TestEngineConcurrentQueries(t *testing.T) {
	ds := mixedDataset(t, 240)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.2, Delta: 0.01}
	queries := []float64{3.5, 20, 47.25, 80, 96}

	// Serial baselines, computed before any concurrency, on a fresh engine so
	// the shared engine's memo starts cold under contention.
	base, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	wantCPNN := make(map[float64]string)
	wantPNN := make(map[float64]string)
	wantKNN := make(map[float64]string)
	for _, q := range queries {
		res, err := base.CPNN(q, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCPNN[q] = fmt.Sprint(res.Candidates)
		probs, _, err := base.PNN(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantPNN[q] = fmt.Sprint(probs)
		kres, _, err := base.CKNN(q, c, KNNOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		wantKNN[q] = fmt.Sprint(kres)
	}
	minRes, err := base.Min(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := fmt.Sprint(minRes.Candidates)
	maxRes, err := base.Max(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantMax := fmt.Sprint(maxRes.Candidates)

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(w+i)%len(queries)]
				switch (w + i) % 5 {
				case 0:
					res, err := eng.CPNN(q, c, Options{Strategy: Strategy((w + i) % 3)})
					if err != nil {
						t.Errorf("CPNN(%g): %v", q, err)
						return
					}
					// Strategies disagree on bounds but VR must match the
					// serial VR baseline exactly.
					if Strategy((w+i)%3) == VR && fmt.Sprint(res.Candidates) != wantCPNN[q] {
						t.Errorf("concurrent CPNN(%g) diverged from serial result", q)
						return
					}
				case 1:
					probs, _, err := eng.PNN(q, Options{})
					if err != nil {
						t.Errorf("PNN(%g): %v", q, err)
						return
					}
					if fmt.Sprint(probs) != wantPNN[q] {
						t.Errorf("concurrent PNN(%g) diverged from serial result", q)
						return
					}
				case 2:
					kres, _, err := eng.CKNN(q, c, KNNOptions{K: 3})
					if err != nil {
						t.Errorf("CKNN(%g): %v", q, err)
						return
					}
					if fmt.Sprint(kres) != wantKNN[q] {
						t.Errorf("concurrent CKNN(%g) diverged from serial result", q)
						return
					}
				case 3:
					res, err := eng.Min(c, Options{})
					if err != nil {
						t.Errorf("Min: %v", err)
						return
					}
					if fmt.Sprint(res.Candidates) != wantMin {
						t.Error("concurrent Min diverged from serial result")
						return
					}
				default:
					res, err := eng.Max(c, Options{})
					if err != nil {
						t.Errorf("Max: %v", err)
						return
					}
					if fmt.Sprint(res.Candidates) != wantMax {
						t.Error("concurrent Max diverged from serial result")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngine2DConcurrentQueries is the planar counterpart: parallel CPNN and
// PNN over one shared 2-D engine, checked against serial baselines.
func TestEngine2DConcurrentQueries(t *testing.T) {
	objs := make([]Object2D, 120)
	for i := range objs {
		objs[i] = Object2D{
			ID: i,
			Region: geom.Circle{
				Center: geom.Point{X: float64(i % 11), Y: float64(i % 7)},
				Radius: 0.4 + float64(i%4)*0.3,
			},
		}
	}
	eng, err := NewEngine2D(objs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewEngine2D(objs)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.15, Delta: 0.02}
	queries := []geom.Point{{X: 2, Y: 3}, {X: 8.5, Y: 1.5}, {X: 5, Y: 5}}
	wantCPNN := make([]string, len(queries))
	wantPNN := make([]string, len(queries))
	for i, q := range queries {
		res, err := base.CPNN(q, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCPNN[i] = fmt.Sprint(res.Candidates)
		probs, _, err := base.PNN(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantPNN[i] = fmt.Sprint(probs)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (w + i) % len(queries)
				if (w+i)%2 == 0 {
					res, err := eng.CPNN(queries[qi], c, Options{})
					if err != nil {
						t.Errorf("CPNN2D: %v", err)
						return
					}
					if fmt.Sprint(res.Candidates) != wantCPNN[qi] {
						t.Error("concurrent 2-D CPNN diverged from serial result")
						return
					}
				} else {
					probs, _, err := eng.PNN(queries[qi], Options{})
					if err != nil {
						t.Errorf("PNN2D: %v", err)
						return
					}
					if fmt.Sprint(probs) != wantPNN[qi] {
						t.Error("concurrent 2-D PNN diverged from serial result")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
