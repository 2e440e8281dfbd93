package refine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/subregion"
	"repro/internal/verify"
)

// handTable rebuilds the worked example shared with the subregion and verify
// tests: X1 hist{0,2,6; .4,.6}, X2 uniform[1,5], X3 uniform[3,8].
func handTable(t *testing.T) *subregion.Table {
	t.Helper()
	tb, err := subregion.Build([]subregion.Candidate{
		{ID: 10, Dist: pdf.MustHistogram([]float64{0, 2, 6}, []float64{0.4, 0.6})},
		{ID: 20, Dist: pdf.MustHistogram([]float64{1, 5}, []float64{1})},
		{ID: 30, Dist: pdf.MustHistogram([]float64{3, 8}, []float64{1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// randomTable builds a randomized candidate set through the real distance
// pipeline. It returns nil when the seed produces a degenerate configuration.
func randomTable(seed int64) *subregion.Table {
	rng := rand.New(rand.NewSource(seed))
	nObj := 2 + rng.Intn(8)
	q := rng.Float64() * 50
	var cands []subregion.Candidate
	fMin := math.Inf(1)
	var nears []float64
	for i := 0; i < nObj; i++ {
		lo := q - 15 + rng.Float64()*30
		width := 0.5 + rng.Float64()*10
		var p pdf.PDF
		if rng.Intn(2) == 0 {
			p = pdf.MustUniform(lo, lo+width)
		} else {
			p = pdf.MustHistogram(
				[]float64{lo, lo + width/3, lo + width},
				[]float64{0.3 + rng.Float64(), 0.3 + rng.Float64()})
		}
		d, err := dist.FromPDF(p, q)
		if err != nil {
			return nil
		}
		sup := d.Support()
		nears = append(nears, sup.Lo)
		fMin = math.Min(fMin, sup.Hi)
		cands = append(cands, subregion.Candidate{ID: i, Dist: d})
	}
	kept := cands[:0]
	for i, c := range cands {
		if nears[i] <= fMin {
			kept = append(kept, c)
		}
	}
	tb, err := subregion.Build(kept)
	if err != nil {
		return nil
	}
	return tb
}

func TestExactProbabilitiesSumToOne(t *testing.T) {
	tb := handTable(t)
	sum := 0.0
	for i := 0; i < tb.NumCandidates(); i++ {
		p, err := Exact(tb, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σ p_i = %.12f, want 1", sum)
	}
}

func TestExactWithinVerifierBounds(t *testing.T) {
	tb := handTable(t)
	// Hand-derived L-SR lowers and U-SR uppers.
	lo := []float64{0.40625, 0.25, 0.03}
	up := []float64{0.54375, 0.44125, 0.045}
	for i := range lo {
		p, err := Exact(tb, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p < lo[i]-1e-9 || p > up[i]+1e-9 {
			t.Errorf("candidate %d: exact %g outside [%g, %g]", i, p, lo[i], up[i])
		}
	}
}

func TestExactMatchesMonteCarlo(t *testing.T) {
	tb := handTable(t)
	cands := make([]subregion.Candidate, tb.NumCandidates())
	for i := range cands {
		cands[i] = subregion.Candidate{ID: tb.IDs()[i], Dist: tb.Dist(i)}
	}
	rng := rand.New(rand.NewSource(99))
	mc, err := MonteCarlo(cands, 300000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		p, err := Exact(tb, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(p - mc[i]); diff > 0.005 {
			t.Errorf("candidate %d: exact %g vs MC %g", i, p, mc[i])
		}
	}
}

func TestExactMatchesBasic(t *testing.T) {
	tb := handTable(t)
	cands := make([]subregion.Candidate, tb.NumCandidates())
	for i := range cands {
		cands[i] = subregion.Candidate{ID: tb.IDs()[i], Dist: tb.Dist(i)}
	}
	basics, err := BasicAll(cands, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		p, err := Exact(tb, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(p - basics[i]); diff > 1e-3 {
			t.Errorf("candidate %d: exact %g vs basic %g", i, p, basics[i])
		}
	}
}

func TestExactSubregionEdges(t *testing.T) {
	tb := handTable(t)
	if _, err := ExactSubregion(tb, 0, -1, 0); err == nil {
		t.Error("negative subregion accepted")
	}
	if _, err := ExactSubregion(tb, 0, 99, 0); err == nil {
		t.Error("out-of-range subregion accepted")
	}
	// Rightmost subregion is always zero.
	if q, err := ExactSubregion(tb, 0, tb.NumSubregions()-1, 0); err != nil || q != 0 {
		t.Errorf("rightmost = %g, %v", q, err)
	}
	// Zero-mass subregion is zero (X3 has no mass in S_1).
	if q, err := ExactSubregion(tb, 2, 0, 0); err != nil || q != 0 {
		t.Errorf("zero-mass subregion = %g, %v", q, err)
	}
	// First subregion for X1: alone, q = 1.
	if q, err := ExactSubregion(tb, 0, 0, 0); err != nil || math.Abs(q-1) > 1e-12 {
		t.Errorf("S1 for X1 = %g, %v, want 1", q, err)
	}
}

func TestAutoGLNodes(t *testing.T) {
	if n := autoGLNodes(0); n < 2 {
		t.Errorf("autoGLNodes(0) = %d", n)
	}
	if n := autoGLNodes(96); n != 49 {
		t.Errorf("autoGLNodes(96) = %d, want 49", n)
	}
	if n := autoGLNodes(100000); n > 256 {
		t.Errorf("autoGLNodes uncapped: %d", n)
	}
}

func TestIncrementalAgreesWithExact(t *testing.T) {
	tb := handTable(t)
	// With Delta=0 the incremental decision must agree exactly with the
	// relationship between the exact probability and the threshold, and the
	// final bound must still contain the exact value.
	for i := 0; i < tb.NumCandidates(); i++ {
		exact, err := Exact(tb, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		above, err := Incremental(tb, i, verify.Constraint{P: exact + 1e-6, Delta: 0},
			verify.Bounds{L: 0, U: 1}, VerifierPrior{})
		if err != nil {
			t.Fatal(err)
		}
		if above.Status != verify.Fail {
			t.Errorf("candidate %d: status %v with P just above exact %g (bounds %v)",
				i, above.Status, exact, above.Bounds)
		}
		if exact < above.Bounds.L-1e-7 || exact > above.Bounds.U+1e-7 {
			t.Errorf("candidate %d: exact %g escaped bounds %v", i, exact, above.Bounds)
		}
		below, err := Incremental(tb, i, verify.Constraint{P: exact - 1e-6, Delta: 0},
			verify.Bounds{L: 0, U: 1}, VerifierPrior{})
		if err != nil {
			t.Fatal(err)
		}
		if below.Status != verify.Satisfy {
			t.Errorf("candidate %d: status %v with P just below exact %g (bounds %v)",
				i, below.Status, exact, below.Bounds)
		}
	}
}

func TestIncrementalEarlyStop(t *testing.T) {
	tb := handTable(t)
	// X3's exact probability is tiny (~0.036); with P=0.5 the verifier
	// prior alone decides (upper bound 0.045 < 0.5): zero integrations.
	res, err := Incremental(tb, 2, verify.Constraint{P: 0.5, Delta: 0.01},
		verify.Bounds{L: 0, U: 1}, VerifierPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != verify.Fail {
		t.Errorf("X3 = %v, want fail", res.Status)
	}
	if res.Integrations != 0 {
		t.Errorf("X3 used %d integrations, want 0 (prior suffices)", res.Integrations)
	}
	// For X1 (wide bounds, exact ~0.53) the trivial prior cannot decide
	// upfront and must integrate, while the verifier prior starts tighter.
	rv, err := Incremental(tb, 0, verify.Constraint{P: 0.5, Delta: 0.01},
		verify.Bounds{L: 0, U: 1}, VerifierPrior{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Incremental(tb, 0, verify.Constraint{P: 0.5, Delta: 0.01},
		verify.Bounds{L: 0, U: 1}, TrivialPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Integrations == 0 {
		t.Error("trivial prior decided X1 without integrating; expected work")
	}
	if rv.Status != rt.Status {
		t.Errorf("priors disagree on X1: %v vs %v", rv.Status, rt.Status)
	}
}

func TestIncrementalRespectsTolerance(t *testing.T) {
	tb := handTable(t)
	// X1 exact ~0.49; P=0.4, large Delta: satisfied once the bound width
	// shrinks under Delta, likely without full collapse.
	res, err := Incremental(tb, 0, verify.Constraint{P: 0.4, Delta: 0.2},
		verify.Bounds{L: 0, U: 1}, VerifierPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != verify.Satisfy {
		t.Errorf("X1 = %v (bounds %v)", res.Status, res.Bounds)
	}
}

func TestIncrementalInvalidConstraint(t *testing.T) {
	tb := handTable(t)
	if _, err := Incremental(tb, 0, verify.Constraint{P: 0}, verify.Bounds{L: 0, U: 1}, VerifierPrior{}); err == nil {
		t.Error("invalid constraint accepted")
	}
}

func TestBasicValidation(t *testing.T) {
	tb := handTable(t)
	cands := []subregion.Candidate{{ID: 10, Dist: tb.Dist(0)}}
	if _, err := Basic(cands, -1, 100); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := Basic(cands, 5, 100); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := Basic(cands, 0, 1); err == nil {
		t.Error("single step accepted")
	}
}

func TestBasicSingleCandidate(t *testing.T) {
	d, err := dist.FromPDF(pdf.MustUniform(3, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := []subregion.Candidate{{ID: 0, Dist: d}}
	p, err := Basic(cands, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-6 {
		t.Errorf("lone candidate probability = %g, want 1", p)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if out, err := MonteCarlo(nil, 100, rng); err != nil || out != nil {
		t.Errorf("empty candidates: %v, %v", out, err)
	}
	tb := handTable(t)
	cands := []subregion.Candidate{{ID: 10, Dist: tb.Dist(0)}}
	if _, err := MonteCarlo(cands, 0, rng); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestMonteCarloSumsToOne(t *testing.T) {
	tb := handTable(t)
	cands := make([]subregion.Candidate, tb.NumCandidates())
	for i := range cands {
		cands[i] = subregion.Candidate{ID: tb.IDs()[i], Dist: tb.Dist(i)}
	}
	rng := rand.New(rand.NewSource(2))
	out, err := MonteCarlo(cands, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range out {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("MC probabilities sum to %g", sum)
	}
}

// TestExactSumProperty: on random candidate sets, exact qualification
// probabilities must sum to one and stay within verifier bounds.
func TestExactSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		tb := randomTable(seed)
		if tb == nil {
			return true
		}
		n := tb.NumCandidates()
		bounds := make([]verify.Bounds, n)
		status := make([]verify.Status, n)
		for i := range bounds {
			bounds[i] = verify.Bounds{L: 0, U: 1}
		}
		verify.RS{}.Apply(tb, bounds, status)
		verify.LSR{}.Apply(tb, bounds, status)
		verify.USR{}.Apply(tb, bounds, status)
		sum := 0.0
		for i := 0; i < n; i++ {
			p, err := Exact(tb, i, 0)
			if err != nil {
				return false
			}
			if p < bounds[i].L-1e-9 || p > bounds[i].U+1e-9 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalConvergesProperty: regardless of the prior, the incremental
// decision agrees with the exact probability's side of the threshold, and
// the exact value never escapes the final bound.
func TestIncrementalConvergesProperty(t *testing.T) {
	f := func(seed int64, useTrivial bool) bool {
		tb := randomTable(seed)
		if tb == nil {
			return true
		}
		var prior Prior = VerifierPrior{}
		if useTrivial {
			prior = TrivialPrior{}
		}
		i := int(uint64(seed) % uint64(tb.NumCandidates()))
		exact, err := Exact(tb, i, 0)
		if err != nil {
			return false
		}
		if exact < 1-2e-6 { // a threshold above exact is only meaningful below 1
			above, err := Incremental(tb, i, verify.Constraint{P: exact + 1e-6, Delta: 0},
				verify.Bounds{L: 0, U: 1}, prior)
			if err != nil || above.Status != verify.Fail {
				return false
			}
			if exact < above.Bounds.L-1e-7 || exact > above.Bounds.U+1e-7 {
				return false
			}
		}
		if exact <= 2e-6 {
			return true // below-threshold probe would be invalid
		}
		below, err := Incremental(tb, i, verify.Constraint{P: exact - 1e-6, Delta: 0},
			verify.Bounds{L: 0, U: 1}, prior)
		return err == nil && below.Status == verify.Satisfy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVerifierPriorNeverWorseThanTrivial: with the verifier prior,
// incremental refinement never needs more integrations than with the trivial
// prior — the paper's argument for reusing verifier knowledge.
func TestVerifierPriorNeverWorseThanTrivial(t *testing.T) {
	tb := handTable(t)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for i := 0; i < tb.NumCandidates(); i++ {
		rv, err := Incremental(tb, i, c, verify.Bounds{L: 0, U: 1}, VerifierPrior{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Incremental(tb, i, c, verify.Bounds{L: 0, U: 1}, TrivialPrior{})
		if err != nil {
			t.Fatal(err)
		}
		if rv.Integrations > rt.Integrations {
			t.Errorf("candidate %d: verifier prior used %d integrations, trivial used %d",
				i, rv.Integrations, rt.Integrations)
		}
		if rv.Status != rt.Status {
			t.Errorf("candidate %d: priors disagree: %v vs %v", i, rv.Status, rt.Status)
		}
	}
}
