package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// TestCKNNStableIDsOrderInvariance: the answer is a function of the object
// set, not of the dataset's dense slot layout. Permuting the slots (what a
// store delete's swap-into-hole does) moves near-point ties in the table's
// order, so probabilities may move in their last bits: within 1e-12, and
// byte-equal after the monitor's 9-decimal quantization of answer bodies.
// This is the property the monitor's influence pruning relies on.
func TestCKNNStableIDsOrderInvariance(t *testing.T) {
	pdfs := []pdf.PDF{
		pdf.MustUniform(0, 4),
		pdf.MustUniform(1, 5),
		pdf.MustUniform(3, 9),
		pdf.MustUniform(8, 12),
		pdf.MustUniform(2, 6),
	}
	stable := []uint64{10, 11, 12, 13, 14}
	perm := []int{3, 0, 4, 2, 1}

	permPDFs := make([]pdf.PDF, len(pdfs))
	permStable := make([]uint64, len(pdfs))
	for dst, src := range perm {
		permPDFs[dst] = pdfs[src]
		permStable[dst] = stable[src]
	}

	run := func(ps []pdf.PDF, ids []uint64) map[uint64]KNNAnswer {
		e, err := NewEngine(uncertain.NewDataset(ps))
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := e.CKNN(3, verify.Constraint{P: 0.2, Delta: 0.05}, KNNOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.FMin <= 0 {
			t.Fatalf("critical distance not exposed: %+v", st)
		}
		m := map[uint64]KNNAnswer{}
		for _, a := range out {
			m[ids[a.ID]] = a
		}
		return m
	}

	round9 := func(v float64) float64 { return math.Round(v*1e9) / 1e9 }
	base := run(pdfs, stable)
	permuted := run(permPDFs, permStable)
	if len(base) != len(permuted) {
		t.Fatalf("candidate sets differ: %d vs %d", len(base), len(permuted))
	}
	for id, a := range base {
		b, ok := permuted[id]
		if !ok {
			t.Fatalf("stable id %d missing after permutation", id)
		}
		if a.Status != b.Status || math.Abs(a.Bounds.L-b.Bounds.L) > 1e-12 || math.Abs(a.Bounds.U-b.Bounds.U) > 1e-12 {
			t.Fatalf("stable id %d: %+v vs %+v after permutation", id, a, b)
		}
		if round9(a.Bounds.L) != round9(b.Bounds.L) || round9(a.Bounds.U) != round9(b.Bounds.U) {
			t.Fatalf("stable id %d: quantized bounds differ after permutation: %+v vs %+v", id, a, b)
		}
	}
}

// TestCKNNStatsExposeFK checks Stats.FMin is the k-th smallest far-point
// distance and Stats.Candidates the filtered set size.
func TestCKNNStatsExposeFK(t *testing.T) {
	e, err := NewEngine(uncertain.NewDataset([]pdf.PDF{
		pdf.MustUniform(0, 2),   // far from q=1: 1
		pdf.MustUniform(4, 6),   // far: 5
		pdf.MustUniform(10, 12), // far: 11
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.CKNN(1, verify.Constraint{P: 0.5}, KNNOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.FMin != 5 {
		t.Fatalf("f_2 = %g, want 5", st.FMin)
	}
	if st.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2 (object [10,12] has near dist 9 > 5)", st.Candidates)
	}
}

// TestCKNNStatsPhases: the stateless CKNN times every phase it runs, as
// KNNIncremental does on a cold state, and both fill the same input-derived
// Stats fields — set sizes, f_k and the refined count. The incremental
// evaluation times its one table rebuild inside its init phase.
func TestCKNNStatsPhases(t *testing.T) {
	e := genEngine(t, 2000, 5)
	ids := identityIDs(e.Dataset().Len())
	c := verify.Constraint{P: 0.1, Delta: 0.01}
	opt := KNNOptions{K: 3}

	start := time.Now()
	as, st, err := e.CKNN(500, c, opt)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no candidates; the fixture should classify some")
	}
	if st.InitTime <= 0 || st.RefineTime <= 0 {
		t.Fatalf("CKNN left a phase untimed: init %v, refine %v", st.InitTime, st.RefineTime)
	}
	if !(st.FilterTime < st.Total() && st.Total() <= wall) {
		t.Fatalf("filter %v < total %v <= wall %v does not hold", st.FilterTime, st.Total(), wall)
	}

	ias, ist, _, err := e.KNNIncremental(500, c, opt, NewEvalState(), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(as, ias) {
		t.Fatal("CKNN and cold KNNIncremental disagree on the answer")
	}
	if (ist.InitTime > 0) != (st.InitTime > 0) || (ist.RefineTime > 0) != (st.RefineTime > 0) ||
		ist.FMin != st.FMin || ist.Candidates != st.Candidates || ist.Subregions != st.Subregions ||
		ist.RefinedObjects != st.RefinedObjects || ist.Integrations != st.Integrations {
		t.Fatalf("stats diverge: CKNN %+v, KNNIncremental %+v", st, ist)
	}
	if !(0 < ist.TableTime && ist.TableTime <= ist.InitTime) {
		t.Fatalf("KNNIncremental table %v, init %v: want 0 < table <= init", ist.TableTime, ist.InitTime)
	}
}
