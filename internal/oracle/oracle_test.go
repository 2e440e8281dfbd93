package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Cross-check margins: with 20k samples the oracle's standard error is at
// most 0.0036 per probability, so 0.02 is over 5σ. The 2-D margin adds room
// for the engine's 300-bin lens-area discretization, which the oracle (raw
// disk sampling) does not share.
const (
	oracleSamples = 20000
	eps1D         = 0.02
	eps2D         = 0.035
)

// checkAgainstOracle verifies one engine result against oracle
// probabilities: every candidate's bounds must bracket the oracle estimate,
// classifications must be consistent with the constraint, and objects the
// filter pruned must be (near-)impossible nearest neighbors.
func checkAgainstOracle(t *testing.T, label string, res *core.Result, p []float64, c verify.Constraint, eps float64) {
	t.Helper()
	seen := make(map[int]bool, len(res.Candidates))
	for _, a := range res.Candidates {
		seen[a.ID] = true
		op := p[a.ID]
		if op < a.Bounds.L-eps || op > a.Bounds.U+eps {
			t.Errorf("%s: object %d: oracle p=%.4f outside engine bounds [%.4f, %.4f]",
				label, a.ID, op, a.Bounds.L, a.Bounds.U)
		}
		switch a.Status {
		case verify.Satisfy:
			if op < c.P-c.Delta-eps {
				t.Errorf("%s: object %d classified satisfy but oracle p=%.4f << P=%.2f (Δ=%.2f)",
					label, a.ID, op, c.P, c.Delta)
			}
		case verify.Fail:
			if op >= c.P+eps {
				t.Errorf("%s: object %d classified fail but oracle p=%.4f >= P=%.2f",
					label, a.ID, op, c.P)
			}
		default:
			t.Errorf("%s: object %d left unknown in a final result", label, a.ID)
		}
	}
	for id, op := range p {
		if !seen[id] && op > eps {
			t.Errorf("%s: filtered-out object %d has oracle p=%.4f", label, id, op)
		}
	}
}

// oracleDataset1D builds a small random dataset: uniform pdfs on even seeds,
// random histogram pdfs on odd seeds — the paper's two 1-D uncertainty
// models.
func oracleDataset1D(t *testing.T, seed int64) *uncertain.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 7))
	opt := uncertain.GenOptions{
		N:       8 + rng.Intn(25),
		Domain:  100,
		MeanLen: 8,
		MinLen:  1,
		MaxLen:  30,
		Seed:    seed,
	}
	var (
		ds  *uncertain.Dataset
		err error
	)
	if seed%2 == 0 {
		ds, err = uncertain.GenerateUniform(opt)
	} else {
		ds, err = uncertain.GenerateHistogram(opt, 6)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestOracleCrossCheck1D runs the 50-dataset seeded cross-check for the 1-D
// engine: C-PNN answers, exact PNN probabilities, and filtered objects, all
// against the brute-force oracle.
func TestOracleCrossCheck1D(t *testing.T) {
	passed := 0
	for seed := int64(1); seed <= 50; seed++ {
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 101))
			ds := oracleDataset1D(t, seed)
			eng, err := core.NewEngine(ds)
			if err != nil {
				t.Fatal(err)
			}
			c := verify.Constraint{P: 0.15 + 0.5*rng.Float64(), Delta: 0.02 + 0.08*rng.Float64()}
			qs := []float64{10 + 80*rng.Float64(), 10 + 80*rng.Float64()}

			for i, q := range qs {
				label := labelFor("1D", seed, i)
				single, err := eng.CPNN(q, c, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				p := PNN1D(ds, q, oracleSamples, rng)
				checkAgainstOracle(t, label, single, p, c, eps1D)

				// Exact PNN probabilities against the same oracle run.
				probs, _, err := eng.PNN(q, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, pr := range probs {
					if d := pr.P - p[pr.ID]; d > eps1D || d < -eps1D {
						t.Errorf("%s: PNN object %d: engine %.4f vs oracle %.4f", label, pr.ID, pr.P, p[pr.ID])
					}
				}
			}
		})
		if ok {
			passed++
		}
	}
	t.Logf("1-D cross-check: %d/50 datasets passed", passed)
	if passed != 50 {
		t.Errorf("1-D cross-check passed %d/50 datasets", passed)
	}
}

// TestOracleCrossCheckKNN cross-checks the exact constrained k-NN against
// the oracle's independent k-NN membership estimate on a subset of the
// seeded datasets.
func TestOracleCrossCheckKNN(t *testing.T) {
	for seed := int64(1); seed <= 50; seed += 5 {
		rng := rand.New(rand.NewSource(seed * 301))
		ds := oracleDataset1D(t, seed)
		eng, err := core.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		c := verify.Constraint{P: 0.2 + 0.4*rng.Float64(), Delta: 0.05}
		q := 10 + 80*rng.Float64()
		k := 1 + rng.Intn(3)
		answers, _, err := eng.CKNN(q, c, core.KNNOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		p := KNN1D(ds, q, k, oracleSamples, rng)
		// The engine's bound is the exact value, so the margin is the
		// oracle's own sampling error: eps1D is over 5σ of it.
		for _, a := range answers {
			if p[a.ID] < a.Bounds.L-eps1D || p[a.ID] > a.Bounds.U+eps1D {
				t.Errorf("seed %d: k=%d object %d: oracle p=%.4f outside engine bounds [%.4f, %.4f]",
					seed, k, a.ID, p[a.ID], a.Bounds.L, a.Bounds.U)
			}
		}
	}
}

// TestKNNMassOnOracleSets: on every seeded dataset, an object's k-NN
// membership probabilities sum to the expected size of the k-NN set,
// min(k, n) — the candidate filter loses no mass and the integration adds
// none.
func TestKNNMassOnOracleSets(t *testing.T) {
	c := verify.Constraint{P: 0.5, Delta: 0.01}
	for seed := int64(1); seed <= 50; seed++ {
		ds := oracleDataset1D(t, seed)
		eng, err := core.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		q := 10 + 80*rand.New(rand.NewSource(seed)).Float64()
		for _, k := range []int{1, 2, 3, 5} {
			answers, _, err := eng.CKNN(q, c, core.KNNOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, a := range answers {
				sum += a.Bounds.L
			}
			if want := float64(min(k, ds.Len())); math.Abs(sum-want) > 1e-9 {
				t.Errorf("seed %d k=%d: Σ p = %.12f over %d candidates, want %g", seed, k, sum, len(answers), want)
			}
		}
	}
}

// TestOracleCrossCheck2D runs the 50-dataset seeded cross-check for the
// planar engine over random disk datasets.
func TestOracleCrossCheck2D(t *testing.T) {
	passed := 0
	for seed := int64(1); seed <= 50; seed++ {
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 211))
			objs := make([]core.Object2D, 10+rng.Intn(21))
			for i := range objs {
				objs[i] = core.Object2D{
					ID: i,
					Region: geom.Circle{
						Center: geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
						Radius: 0.5 + rng.Float64()*5,
					},
				}
			}
			eng, err := core.NewEngine2D(objs)
			if err != nil {
				t.Fatal(err)
			}
			c := verify.Constraint{P: 0.15 + 0.5*rng.Float64(), Delta: 0.02 + 0.08*rng.Float64()}
			q := geom.Point{X: 5 + rng.Float64()*40, Y: 5 + rng.Float64()*40}

			single, err := eng.CPNN(q, c, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			label := labelFor("2D", seed, 0)
			p := PNN2D(objs, q, oracleSamples, rng)
			checkAgainstOracle(t, label, single, p, c, eps2D)
		})
		if ok {
			passed++
		}
	}
	t.Logf("2-D cross-check: %d/50 datasets passed", passed)
	if passed != 50 {
		t.Errorf("2-D cross-check passed %d/50 datasets", passed)
	}
}

func labelFor(kind string, seed int64, q int) string {
	return fmt.Sprintf("%s seed %d q%d", kind, seed, q)
}
