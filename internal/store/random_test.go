package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/oracle"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// TestRandomOpsAgainstModel drives a store with seeded random op sequences
// and cross-checks, after every batch, the published view against a plain
// in-memory model (map of stable ID → pdf), and periodically the engine's
// PNN answers over the view against the internal/oracle Monte-Carlo
// evaluator.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		s, _ := openTemp(t, Options{NoSync: true})
		rng := rand.New(rand.NewSource(seed))
		sc := newOpScript(seed)
		model := map[uint64]pdf.PDF{}

		for batch := 0; batch < 25; batch++ {
			ops := sc.batch(8)
			res, err := s.Apply(ops)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			// Mirror the batch into the model using the reported IDs.
			for i, op := range ops {
				switch op.Code {
				case OpUniform, OpHist:
					model[res.IDs[i]] = op.PDF
				case OpDelete:
					delete(model, res.IDs[i])
				case OpTruncate:
					model = map[uint64]pdf.PDF{}
				}
			}

			v := s.View()
			if v.Dataset.Len() != len(model) {
				t.Fatalf("seed %d batch %d: view %d objects, model %d",
					seed, batch, v.Dataset.Len(), len(model))
			}
			for slot, id := range v.IDs {
				want, ok := model[id]
				if !ok {
					t.Fatalf("seed %d batch %d: view holds unknown id %d", seed, batch, id)
				}
				if got := v.Dataset.Object(slot).Region(); got != want.Support() {
					t.Fatalf("seed %d batch %d: id %d region %+v, model %+v",
						seed, batch, id, got, want.Support())
				}
			}

			// Every few batches, check exact PNN probabilities against the
			// brute-force oracle sampling the raw pdfs.
			if batch%8 == 7 && v.Dataset.Len() > 0 {
				eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
				if err != nil {
					t.Fatal(err)
				}
				dom := v.Dataset.Domain()
				q := dom.Lo + rng.Float64()*(dom.Hi-dom.Lo)
				probs, _, err := eng.PNN(q, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				const samples = 30000
				mc := oracle.PNN1D(v.Dataset, q, samples, rand.New(rand.NewSource(seed*1000+int64(batch))))
				for _, pr := range probs {
					// 5σ Monte-Carlo bound plus the engine's integration slack.
					tol := 5*math.Sqrt(pr.P*(1-pr.P)/samples) + 0.01
					if diff := math.Abs(pr.P - mc[pr.ID]); diff > tol {
						t.Fatalf("seed %d batch %d q=%g: object %d engine %g oracle %g (diff %g > %g)",
							seed, batch, q, pr.ID, pr.P, mc[pr.ID], diff, tol)
					}
				}
			}
		}
		s.Close()
	}
}

// TestIncrementalIndexMatchesBulkRebuild runs 50 seeded random op sequences
// and asserts the incrementally-maintained index of the final view answers
// candidate-set queries identically to an index bulk-rebuilt from the same
// dataset — same IDs, same f_min (the acceptance gate for live index
// maintenance).
func TestIncrementalIndexMatchesBulkRebuild(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s, _ := openTemp(t, Options{NoSync: true})
		sc := newOpScript(seed + 100)
		rng := rand.New(rand.NewSource(seed))
		for batch := 0; batch < 12; batch++ {
			if _, err := s.Apply(sc.batch(5)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		v := s.View()
		if v.Dataset.Len() == 0 {
			s.Close()
			continue
		}
		bulk, err := filter.NewIndex(v.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		dom := v.Dataset.Domain()
		for probe := 0; probe < 8; probe++ {
			q := dom.Lo + rng.Float64()*(dom.Hi-dom.Lo)
			a, b := v.Index.Candidates(q), bulk.Candidates(q)
			if a.FMin != b.FMin {
				t.Fatalf("seed %d q=%g: incremental fmin %g, bulk %g", seed, q, a.FMin, b.FMin)
			}
			sort.Ints(a.IDs)
			sort.Ints(b.IDs)
			if len(a.IDs) != len(b.IDs) {
				t.Fatalf("seed %d q=%g: %d vs %d candidates", seed, q, len(a.IDs), len(b.IDs))
			}
			for i := range a.IDs {
				if a.IDs[i] != b.IDs[i] {
					t.Fatalf("seed %d q=%g: candidate sets differ: %v vs %v", seed, q, a.IDs, b.IDs)
				}
			}
		}
		s.Close()
	}
}

// TestHitRegionsMatchDataset: every hit a filter index hands back carries
// exactly its object's region. The 1-D engine folds a uniform candidate
// from that region alone, so a stale leaf rectangle would silently give a
// wrong probability. It holds for the index a store view carries through a
// few hundred commits by Index.Apply, and for NewIndex and NewScan over a
// materialized copy of the final view. The view's Source-backed dataset
// marks no object uniform — the engine never trusts a region in place of a
// pdf it would have to fault in — while the copy marks exactly its
// pdf.Uniform objects.
func TestHitRegionsMatchDataset(t *testing.T) {
	check := func(what string, ix *filter.Index, q float64) {
		t.Helper()
		ds := ix.Dataset()
		hits, fMin := ix.AppendCandidates(nil, q)
		if len(hits) == 0 {
			t.Fatalf("%s q=%g: no candidates over %d objects", what, q, ds.Len())
		}
		// A ball wider than the candidate set reaches past f_min's leaves.
		hits = ix.AppendWithin(hits, q, 4*fMin+1)
		for _, h := range hits {
			if want := ds.Region(h.ID); h.Region != want {
				t.Fatalf("%s q=%g: hit %d region %+v, dataset %+v", what, q, h.ID, h.Region, want)
			}
		}
	}
	s, _ := openTemp(t, Options{NoSync: true})
	defer s.Close()
	sc := newOpScript(43)
	rng := rand.New(rand.NewSource(43))
	load := make([]Op, 400)
	for i := range load {
		load[i] = InsertObject(sc.randomPDF())
		sc.live = append(sc.live, sc.nextID)
		sc.nextID++
	}
	if _, err := s.Apply(load); err != nil {
		t.Fatal(err)
	}
	for commit := 0; commit < 300; commit++ {
		if _, err := s.Apply(sc.batch(4)); err != nil {
			t.Fatalf("commit %d: %v", commit, err)
		}
		v := s.View()
		dom := v.Dataset.Domain()
		check(fmt.Sprintf("view after commit %d", commit), v.Index, dom.Lo+rng.Float64()*dom.Length())
	}

	v := s.View()
	pdfs := make([]pdf.PDF, v.Dataset.Len())
	uniforms := 0
	for i := range pdfs {
		pdfs[i] = v.Dataset.Object(i).PDF
		if v.Dataset.Uniform(i) {
			t.Fatalf("Source-backed view marks object %d uniform", i)
		}
	}
	mat := uncertain.NewDataset(pdfs)
	for i, p := range pdfs {
		_, isUniform := p.(pdf.Uniform)
		if mat.Uniform(i) != isUniform {
			t.Fatalf("object %d (%T) marked uniform = %v", i, p, mat.Uniform(i))
		}
		if isUniform {
			uniforms++
		}
	}
	if uniforms == 0 || uniforms == len(pdfs) {
		t.Fatalf("%d of %d objects uniform: the mix exercises only one derivation", uniforms, len(pdfs))
	}
	tree, err := filter.NewIndex(mat)
	if err != nil {
		t.Fatal(err)
	}
	dom := mat.Domain()
	for probe := 0; probe < 50; probe++ {
		q := dom.Lo + rng.Float64()*dom.Length()
		check("NewIndex", tree, q)
		check("NewScan", filter.NewScan(mat), q)
	}
}
