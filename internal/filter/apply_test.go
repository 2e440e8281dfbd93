package filter

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

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
