package filter

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// applyScenario mutates a dataset slot-wise the way the store does (updates
// in place, swap-with-last deletes, appends) and returns the edit stream
// alongside the resulting pdf slice.
func applyScenario(rng *rand.Rand, pdfs []pdf.PDF, ops int) ([]pdf.PDF, []Edit) {
	out := append([]pdf.PDF(nil), pdfs...)
	var edits []Edit
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.4 || len(out) == 0: // insert
			lo := rng.Float64() * 100
			p := pdf.MustUniform(lo, lo+1+rng.Float64()*5)
			edits = append(edits, InsertEdit(p.Support(), len(out)))
			out = append(out, p)
		case r < 0.7: // update in place
			slot := rng.Intn(len(out))
			lo := rng.Float64() * 100
			p := pdf.MustUniform(lo, lo+1+rng.Float64()*5)
			edits = append(edits,
				DeleteEdit(out[slot].Support(), slot),
				InsertEdit(p.Support(), slot))
			out[slot] = p
		default: // swap-with-last delete
			slot := rng.Intn(len(out))
			last := len(out) - 1
			edits = append(edits, DeleteEdit(out[slot].Support(), slot))
			if slot != last {
				edits = append(edits,
					DeleteEdit(out[last].Support(), last),
					InsertEdit(out[last].Support(), slot))
				out[slot] = out[last]
			}
			out = out[:last]
		}
	}
	return out, edits
}

func TestApplyMatchesBulkAcrossRandomEdits(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pdfs := make([]pdf.PDF, 120)
		for i := range pdfs {
			lo := rng.Float64() * 100
			pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*5)
		}
		ds := uncertain.NewDataset(pdfs)
		ix, err := NewIndex(ds)
		if err != nil {
			t.Fatal(err)
		}

		newPDFs, edits := applyScenario(rng, pdfs, 25)
		newDS := uncertain.NewDataset(newPDFs)
		inc, err := ix.Apply(newDS, edits)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bulk, err := NewIndex(newDS)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 6; probe++ {
			q := rng.Float64() * 100
			a, b := inc.Candidates(q), bulk.Candidates(q)
			if a.FMin != b.FMin {
				t.Fatalf("seed %d q=%g: fmin %g vs %g", seed, q, a.FMin, b.FMin)
			}
			sort.Ints(a.IDs)
			sort.Ints(b.IDs)
			if len(a.IDs) != len(b.IDs) {
				t.Fatalf("seed %d q=%g: %v vs %v", seed, q, a.IDs, b.IDs)
			}
			for i := range a.IDs {
				if a.IDs[i] != b.IDs[i] {
					t.Fatalf("seed %d q=%g: %v vs %v", seed, q, a.IDs, b.IDs)
				}
			}
		}
		// The original index still answers for the original dataset (COW).
		if got := ix.Len(); got != 120 {
			t.Fatalf("seed %d: original index mutated to %d entries", seed, got)
		}
	}
}

// TestApplyMergesMoves replays the store's update stream — a DeleteEdit and
// an InsertEdit of the same slot per update, which applyEdits merges into
// one R-tree Move — as a chain of committed batches of mostly small steps,
// some long jumps and some slots updated twice in one batch. Every
// generation must answer bit for bit like a bulk NewIndex over its dataset,
// and the generation before it must keep answering for its own.
func TestApplyMergesMoves(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pdfs := make([]pdf.PDF, 400)
		for i := range pdfs {
			lo := rng.Float64() * 1000
			pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*10)
		}
		prev, err := NewIndex(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 30; gen++ {
			next := append([]pdf.PDF(nil), pdfs...)
			var edits []Edit
			for range 32 {
				slot := rng.Intn(len(next))
				sup := next[slot].Support()
				lo := sup.Lo + rng.NormFloat64()
				if rng.Intn(5) == 0 {
					lo = rng.Float64() * 1000
				}
				p := pdf.MustUniform(lo, lo+sup.Length())
				edits = append(edits, DeleteEdit(sup, slot), InsertEdit(p.Support(), slot))
				next[slot] = p
			}
			ds := uncertain.NewDataset(next)
			ix, err := prev.Apply(ds, edits)
			if err != nil {
				t.Fatalf("seed %d gen %d: %v", seed, gen, err)
			}
			bulk, err := NewIndex(ds)
			if err != nil {
				t.Fatal(err)
			}
			old, err := NewIndex(uncertain.NewDataset(pdfs))
			if err != nil {
				t.Fatal(err)
			}
			for probe := 0; probe < 8; probe++ {
				q := rng.Float64() * 1000
				checkSameAnswers(t, fmt.Sprintf("seed %d gen %d", seed, gen), ix, bulk, q)
				checkSameAnswers(t, fmt.Sprintf("seed %d gen %d (previous)", seed, gen), prev, old, q)
			}
			prev, pdfs = ix, next
		}
	}
}

// checkSameAnswers holds got's Candidates, Within and FarBounds at q to
// want's, bit for bit.
func checkSameAnswers(t *testing.T, label string, got, want *Index, q float64) {
	t.Helper()
	a, b := got.Candidates(q), want.Candidates(q)
	if a.FMin != b.FMin || !slices.Equal(a.IDs, b.IDs) {
		t.Fatalf("%s q=%g: candidates %v (f_min %g), want %v (f_min %g)", label, q, a.IDs, a.FMin, b.IDs, b.FMin)
	}
	if w1, w2 := got.Within(q, 2*b.FMin), want.Within(q, 2*b.FMin); !slices.Equal(w1, w2) {
		t.Fatalf("%s q=%g: within %v, want %v", label, q, w1, w2)
	}
	for _, k := range []int{1, 3, 10} {
		if f1, f2 := got.FarBounds(q, k), want.FarBounds(q, k); !slices.Equal(f1, f2) {
			t.Fatalf("%s q=%g k=%d: far bounds %v, want %v", label, q, k, f1, f2)
		}
	}
}

// TestApplyMergedMoveFailsLikeDeleteInsert: a merged update pair whose
// delete finds no entry fails as a lone DeleteEdit does, and one whose
// insert carries an invalid rect fails as a lone InsertEdit does; neither
// touches the index it was applied to.
func TestApplyMergedMoveFailsLikeDeleteInsert(t *testing.T) {
	// Enough objects that two edits replay instead of bulk-rebuilding.
	intervals := make([][2]float64, 20)
	for i := range intervals {
		intervals[i] = [2]float64{float64(2 * i), float64(2*i + 1)}
	}
	ds := mkDataset(intervals)
	ix := mustIndex(t, ds)
	r0 := ds.Object(0).Region()
	missing := DeleteEdit(r0, 3) // the wrong ID for that rect
	if _, err := ix.Apply(ds, []Edit{missing}); err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("lone delete: %v", err)
	}
	if _, err := ix.Apply(ds, []Edit{missing, InsertEdit(r0, 3)}); err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("merged move of a missing entry: %v", err)
	}
	bad := Edit{Rect: geom.Rect{MinX: 2, MaxX: 1}, ID: 0}
	if _, err := ix.Apply(ds, []Edit{DeleteEdit(r0, 0), bad}); err == nil || !strings.Contains(err.Error(), "invalid rect") {
		t.Fatalf("merged move to an invalid rect: %v", err)
	}
	if _, err := ix.Apply(ds, []Edit{bad}); err == nil || !strings.Contains(err.Error(), "invalid rect") {
		t.Fatalf("lone insert of an invalid rect: %v", err)
	}
	for q := -1.0; q < 41; q += 0.5 {
		checkSameAnswers(t, "after refused edits", ix, mustIndex(t, ds), q)
	}
}

func mustIndex(t *testing.T, ds *uncertain.Dataset) *Index {
	t.Helper()
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestApplyLargeEditStreamRebuilds(t *testing.T) {
	ds := mkDataset([][2]float64{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	// More edits than the rebuild threshold: Apply must still return a
	// correct index (via bulk rebuild) even with nonsense edits, because it
	// never replays them on that path.
	edits := make([]Edit, 64)
	next, err := ix.Apply(ds, edits)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != ds.Len() {
		t.Fatalf("rebuilt index has %d entries", next.Len())
	}
}

func TestApplyDetectsInconsistentEdits(t *testing.T) {
	ds := mkDataset([][2]float64{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting an entry that does not exist must fail loudly.
	bogus := DeleteEdit(ds.Object(0).Region(), 3) // wrong ID for that rect
	if _, err := ix.Apply(ds, []Edit{bogus}); err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("bogus delete: %v", err)
	}
	// A net insert without a dataset row must trip the size check.
	extra := InsertEdit(ds.Object(0).Region(), 4)
	if _, err := ix.Apply(ds, []Edit{extra}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestDeleteKeepsIndexConsistent(t *testing.T) {
	ds := mkDataset([][2]float64{{0, 2}, {10, 12}, {20, 22}})
	ix, err := NewIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	if found, err := ix.Delete(ds.Object(1)); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if ix.Len() != 2 {
		t.Fatalf("len %d after delete", ix.Len())
	}
	if found, err := ix.Delete(ds.Object(1)); err != nil || found {
		t.Fatalf("double delete: found=%v err=%v", found, err)
	}
}
