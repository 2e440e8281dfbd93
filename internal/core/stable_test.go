package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// TestCKNNStableIDsOrderInvariance: with KNNOptions.IDs set, the answer is a
// pure function of the stable-ID object set — permuting the dataset's dense
// slot layout (what a store delete's swap-into-hole does) must reproduce
// bit-identical bounds after translating back to stable IDs. This is the
// property the monitor's influence pruning relies on.
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
		out, st, err := e.CKNN(3, verify.Constraint{P: 0.2, Delta: 0.05},
			KNNOptions{K: 2, Samples: 2000, Seed: 7, IDs: ids})
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
		if a.Bounds != b.Bounds || a.Status != b.Status {
			t.Fatalf("stable id %d: %+v vs %+v after permutation", id, a, b)
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
	_, st, err := e.CKNN(1, verify.Constraint{P: 0.5}, KNNOptions{K: 2, Samples: 10, Seed: 1})
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

// TestCPNNScratchMatchesCPNN: a caller-owned scratch reused across many
// queries returns results identical to plain CPNN on a pooled scratch.
func TestCPNNScratchMatchesCPNN(t *testing.T) {
	ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
		N: 200, Domain: 500, MeanLen: 8, MinLen: 1, MaxLen: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	sc := NewScratch()
	for q := 5.0; q < 500; q += 37 {
		want, err := e.CPNN(q, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.CPNNScratch(q, c, Options{}, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("q=%g: %d candidates vs %d", q, len(got.Candidates), len(want.Candidates))
		}
		for i := range got.Candidates {
			if got.Candidates[i] != want.Candidates[i] {
				t.Fatalf("q=%g candidate %d: %+v vs %+v", q, i, got.Candidates[i], want.Candidates[i])
			}
		}
		gotIDs := got.AnswerIDs()
		wantIDs := want.AnswerIDs()
		sort.Ints(gotIDs)
		sort.Ints(wantIDs)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("q=%g: answers %v vs %v", q, gotIDs, wantIDs)
		}
	}
	// Nil scratch falls back to the plain path.
	if _, err := e.CPNNScratch(100, c, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCKNNStatsPhases: the stateless CKNN times every phase it runs, as
// KNNIncremental does on a cold state — before the two shared one entry and
// one classify epilogue, CKNN recorded the filter alone, so a query's
// reported phases summed to microseconds of a many-millisecond evaluation.
// (RefinedObjects is the one field left apart: TestAnswerDigest pins it at
// zero for CKNN and at the candidate count for KNNIncremental.)
func TestCKNNStatsPhases(t *testing.T) {
	e := genEngine(t, 2000, 5)
	ids := make([]uint64, e.Dataset().Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	c := verify.Constraint{P: 0.1, Delta: 0.01}
	opt := KNNOptions{K: 3, Samples: 2000, Seed: 1, IDs: ids}

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
		ist.FMin != st.FMin || ist.Candidates != st.Candidates {
		t.Fatalf("stats diverge: CKNN %+v, KNNIncremental %+v", st, ist)
	}
}
