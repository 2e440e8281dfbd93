package core

// Metamorphic properties of the C-PNN pipeline: transformations of the
// input that must not change the answer (object relabeling, rigid
// translation) and analytic invariants every result must satisfy (verifier
// bounds bracket the exact probability, qualification probabilities sum to
// one). Unlike the oracle cross-check, these need no ground truth — they
// catch bugs by comparing the engine against itself.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pdf"
	"repro/internal/refine"
	"repro/internal/subregion"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// propDataset builds a small uniform-pdf dataset directly (no generator) so
// tests can permute and translate the underlying pdfs.
func propPDFs(rng *rand.Rand, n int) []pdf.PDF {
	pdfs := make([]pdf.PDF, n)
	for i := range pdfs {
		lo := rng.Float64() * 100
		pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*20)
	}
	return pdfs
}

// boundsClose compares two probability bounds to within fp-reordering noise.
func boundsClose(a, b verify.Bounds, tol float64) bool {
	return math.Abs(a.L-b.L) <= tol && math.Abs(a.U-b.U) <= tol
}

// TestRelabelingInvariance: permuting the order objects are handed to the
// engine must permute IDs and nothing else — same answer set, same bounds,
// same statuses. Catches any dependence on input order that is not the
// paper's near-point ordering.
func TestRelabelingInvariance(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pdfs := propPDFs(rng, 12+rng.Intn(20))
		perm := rng.Perm(len(pdfs))
		permuted := make([]pdf.PDF, len(pdfs))
		for i, p := range perm {
			permuted[p] = pdfs[i] // original object i becomes object perm[i]
		}

		engA, err := NewEngine(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		engB, err := NewEngine(uncertain.NewDataset(permuted))
		if err != nil {
			t.Fatal(err)
		}
		c := verify.Constraint{P: 0.2 + 0.4*rng.Float64(), Delta: 0.05}
		for qi := 0; qi < 3; qi++ {
			q := 10 + rng.Float64()*100
			ra, err := engA.CPNN(q, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := engB.CPNN(q, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ra.Candidates) != len(rb.Candidates) {
				t.Fatalf("seed %d q=%g: candidate counts %d vs %d under relabeling",
					seed, q, len(ra.Candidates), len(rb.Candidates))
			}
			// Map A's answers through the permutation and compare.
			byID := make(map[int]Answer, len(rb.Candidates))
			for _, a := range rb.Candidates {
				byID[a.ID] = a
			}
			for _, a := range ra.Candidates {
				b, ok := byID[perm[a.ID]]
				if !ok {
					t.Fatalf("seed %d q=%g: object %d (relabeled %d) missing from permuted result",
						seed, q, a.ID, perm[a.ID])
				}
				if a.Status != b.Status || !boundsClose(a.Bounds, b.Bounds, 1e-9) {
					t.Fatalf("seed %d q=%g: object %d: %v %v vs relabeled %v %v",
						seed, q, a.ID, a.Status, a.Bounds, b.Status, b.Bounds)
				}
			}
		}
	}
}

// TestTranslationInvariance: rigidly translating the dataset and the query
// point together must preserve the answer — distances, and everything
// derived from them, are translation-invariant.
func TestTranslationInvariance(t *testing.T) {
	const shift = 1000.25
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed * 13))
		pdfs := propPDFs(rng, 10+rng.Intn(16))
		shifted := make([]pdf.PDF, len(pdfs))
		for i, p := range pdfs {
			sup := p.Support()
			shifted[i] = pdf.MustUniform(sup.Lo+shift, sup.Hi+shift)
		}
		engA, err := NewEngine(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		engB, err := NewEngine(uncertain.NewDataset(shifted))
		if err != nil {
			t.Fatal(err)
		}
		c := verify.Constraint{P: 0.25, Delta: 0.05}
		for qi := 0; qi < 3; qi++ {
			q := 10 + rng.Float64()*100
			ra, err := engA.CPNN(q, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := engB.CPNN(q+shift, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ra.Candidates) != len(rb.Candidates) {
				t.Fatalf("seed %d q=%g: candidate counts %d vs %d under translation",
					seed, q, len(ra.Candidates), len(rb.Candidates))
			}
			for i, a := range ra.Candidates {
				b := rb.Candidates[i]
				if a.ID != b.ID {
					t.Fatalf("seed %d q=%g: candidate order changed under translation", seed, q)
				}
				// Translation perturbs the fold endpoints by fp rounding;
				// bounds may move by a few ulps amplified through products.
				if a.Status != b.Status || !boundsClose(a.Bounds, b.Bounds, 1e-6) {
					t.Fatalf("seed %d q=%g: object %d: %v %v vs translated %v %v",
						seed, q, a.ID, a.Status, a.Bounds, b.Status, b.Bounds)
				}
			}
		}
	}
}

// TestVerifierBoundsBracketExact: the RS / L-SR / U-SR bounds are claimed
// lower/upper bounds on the exact qualification probability (paper Lemmas
// 1-2, Eq. 11). Check them directly against exact refinement for every
// candidate of random tables.
func TestVerifierBoundsBracketExact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		pdfs := propPDFs(rng, 8+rng.Intn(24))
		eng, err := NewEngine(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		q := 10 + rng.Float64()*100
		fr := eng.ix.Candidates(q)
		if len(fr.IDs) == 0 {
			continue
		}
		cands, err := eng.derive(new(queryScratch), fr.IDs, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		table, err := subregion.Build(cands)
		if err != nil {
			t.Fatal(err)
		}
		// A constraint the verifiers can rarely decide, so bounds stay live.
		c := verify.Constraint{P: 0.5, Delta: 0}
		vres, err := verify.Run(table, c, verify.DefaultChain())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < table.NumCandidates(); i++ {
			exact, err := refine.Exact(table, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := vres.Bounds[i]
			if exact < b.L-1e-9 || exact > b.U+1e-9 {
				t.Errorf("seed %d: candidate %d (id %d): exact p=%.6f outside verifier bounds [%.6f, %.6f]",
					seed, i, table.IDs()[i], exact, b.L, b.U)
			}
		}
	}
}

// TestProbabilitiesSumToOne: the qualification probabilities of a PNN over
// the full candidate set must sum to one — some candidate is always the
// nearest neighbor — and in particular never exceed 1+ε.
func TestProbabilitiesSumToOne(t *testing.T) {
	const eps = 1e-6
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed * 47))
		pdfs := propPDFs(rng, 8+rng.Intn(24))
		eng, err := NewEngine(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 3; qi++ {
			q := 10 + rng.Float64()*100
			probs, st, err := eng.PNN(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Candidates == 0 {
				continue
			}
			sum := 0.0
			for _, pr := range probs {
				if pr.P < -eps || pr.P > 1+eps {
					t.Errorf("seed %d q=%g: probability %g outside [0,1]", seed, q, pr.P)
				}
				sum += pr.P
			}
			if sum > 1+eps {
				t.Errorf("seed %d q=%g: probabilities sum to %.9f > 1+ε", seed, q, sum)
			}
			if sum < 1-1e-3 {
				t.Errorf("seed %d q=%g: probabilities sum to %.9f, mass missing", seed, q, sum)
			}
		}
	}
}
