package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/refine"
	"repro/internal/subregion"
	"repro/internal/verify"
)

// sortedByID is the answer order collect and knnClassify once produced by
// sorting: the rows, in whatever order they came, sorted by ID.
func sortedByID(as []Answer) []Answer {
	out := slices.Clone(as)
	slices.SortFunc(out, func(a, b Answer) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// satisfying filters the satisfying answers out of as, in order.
func satisfying(as []Answer) []Answer {
	var out []Answer
	for _, a := range as {
		if a.Status == verify.Satisfy {
			out = append(out, a)
		}
	}
	return out
}

// checkListedByID holds a Result to the sort-by-ID reference: its
// candidates are exactly ids, one answer each, in ascending ID order, and
// its answers are the satisfying candidates in that order.
func checkListedByID(t *testing.T, what string, res *Result, ids []int) {
	t.Helper()
	want := slices.Sorted(slices.Values(ids))
	got := make([]int, len(res.Candidates))
	for i, a := range res.Candidates {
		got[i] = a.ID
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: candidates listed as %v, want %v", what, got, want)
	}
	if !slices.Equal(res.Answers, satisfying(res.Candidates)) {
		t.Fatalf("%s: answers %v are not the satisfying candidates in ID order", what, res.Answers)
	}
}

// relabel gives cands new IDs in the same relative order, drawn from the
// whole int range with math.MinInt and math.MaxInt at its ends when there
// are two or more, and returns them shuffled, with the map from old ID to
// new. The table over them has the rows of the original's, bit for bit.
func relabel(rng *rand.Rand, cands []subregion.Candidate) ([]subregion.Candidate, map[int]int) {
	seen := map[int]bool{}
	ids := []int{math.MinInt, math.MaxInt}[:min(2, len(cands))]
	for _, id := range ids {
		seen[id] = true
	}
	for len(ids) < len(cands) {
		if id := int(rng.Uint64()); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	old := make([]int, len(cands))
	for i, c := range cands {
		old[i] = c.ID
	}
	slices.Sort(old)
	to := make(map[int]int, len(cands))
	for i, id := range old {
		to[id] = ids[i]
	}
	out := slices.Clone(cands)
	for i := range out {
		out[i].ID = to[out[i].ID]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, to
}

// TestFinishOrderMatchesSort: answers are listed by ID through the table's
// IDRank (or, under Basic, by the candidates' own order), with no sort, and
// the lists equal a sort-by-ID of the rows. Checked on the Long Beach
// workload, whose queries inside regions tie many near points at 0; on the
// same candidates relabelled across the int range, math.MinInt and
// math.MaxInt included, and handed to Rebuild shuffled, which must give the
// same answers bit for bit under the new IDs; for C-PNN under every
// strategy and for constrained k-NN against refine.ExactAll's rows sorted by
// ID; and on the 2-D engine, whose candidates come in R-tree order.
func TestFinishOrderMatchesSort(t *testing.T) {
	eng, qs := longBeachEngine(t, 6000, 38)
	rng := rand.New(rand.NewSource(38))
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	bins := Options{}.withDefaults().Bins
	ties := 0
	for _, q := range qs {
		fr := eng.ix.Candidates(q)
		for _, s := range []Strategy{VR, Refine, Basic} {
			res, err := eng.CPNN(q, c, Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			checkListedByID(t, s.String(), res, fr.IDs)
		}

		// The same table, rebuilt from shuffled input under extreme IDs.
		sc := borrow()
		var st Stats
		cands, table, err := eng.prepare(q, 1, bins, true, sc, &st)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < table.NumCandidates(); i++ {
			if table.Dist(i).Support().Lo == table.Dist(i-1).Support().Lo {
				ties++
			}
		}
		base, err := finishVerifyRefine(table, c, Options{}.withDefaults(), &Result{})
		if err != nil {
			t.Fatal(err)
		}
		moved, to := relabel(rng, cands)
		var shuffled subregion.Table
		if err := shuffled.Rebuild(moved, 1); err != nil {
			t.Fatal(err)
		}
		res, err := finishVerifyRefine(&shuffled, c, Options{}.withDefaults(), &Result{})
		if err != nil {
			t.Fatal(err)
		}
		newIDs := make([]int, len(moved))
		for i, m := range moved {
			newIDs[i] = m.ID
		}
		checkListedByID(t, "relabelled", res, newIDs)
		for i, a := range base.Candidates {
			a.ID = to[a.ID]
			if b := res.Candidates[i]; a.ID != b.ID || a.Status != b.Status ||
				math.Float64bits(a.Bounds.L) != math.Float64bits(b.Bounds.L) || math.Float64bits(a.Bounds.U) != math.Float64bits(b.Bounds.U) {
				t.Fatalf("q=%g: relabelled, shuffled candidate %d is %+v, want %+v", q, i, b, a)
			}
		}
		sc.park()

		// Constrained k-NN: refine.ExactAll's rows, sorted by ID.
		for _, k := range []int{1, 3} {
			out, _, err := eng.CKNN(q, c, KNNOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			sc := borrow()
			_, table, err := eng.prepare(q, k, bins, true, sc, &st)
			if err != nil {
				t.Fatal(err)
			}
			moved, _ := relabel(rng, sc.cands)
			var shuffled subregion.Table
			if err := shuffled.Rebuild(moved, k); err != nil {
				t.Fatal(err)
			}
			for _, tb := range []*subregion.Table{table, &shuffled} {
				probs, err := refine.ExactAll(tb)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([]KNNAnswer, len(probs))
				for i, p := range probs {
					b := verify.Bounds{L: p, U: p}
					rows[i] = KNNAnswer{ID: tb.IDs()[i], Bounds: b, Status: verify.Classify(b, c)}
				}
				got, err := knnClassify(tb, c, &st)
				if err != nil {
					t.Fatal(err)
				}
				if want := sortedByID(rows); !slices.Equal(got, want) {
					t.Fatalf("q=%g k=%d: knnClassify lists %v, want %v", q, k, got, want)
				}
				if tb == table && !slices.Equal(got, out) {
					t.Fatalf("q=%g k=%d: CKNN %v, knnClassify over its table %v", q, k, out, got)
				}
			}
			sc.park()
		}
	}
	if ties == 0 {
		t.Fatal("no tied near points: the workload should tie the regions that contain a query")
	}

	// The 2-D engine: IDs across the int range, candidates in R-tree order.
	unsorted := 0
	for set := 0; set < 100; set++ {
		objs := make([]Object2D, 16)
		ids := []int{math.MaxInt, math.MinInt}
		for len(ids) < len(objs) {
			if id := int(rng.Uint64()); !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		for i := range objs {
			objs[i] = Object2D{ID: ids[i], Region: geom.Circle{
				Center: geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Radius: 1 + rng.Float64()*3,
			}}
		}
		eng2, err := NewEngine2D(objs)
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Point{X: 5, Y: 5}
		pos, _ := eng2.source2D.candidates(q, 1, nil)
		candIDs := make([]int, len(pos))
		for i, p := range pos {
			candIDs[i] = objs[p.ID].ID
		}
		if !slices.IsSorted(candIDs) {
			unsorted++
		}
		for _, s := range []Strategy{VR, Refine, Basic} {
			res, err := eng2.CPNN(q, c, Options{Strategy: s, Bins: 32})
			if err != nil {
				t.Fatal(err)
			}
			checkListedByID(t, "2-D "+s.String(), res, candIDs)
		}
		// Basic against its rows: refine.BasicAll in candidate order.
		sc := borrow()
		var st Stats
		cands, _, err := eng2.prepare(q, 1, 32, false, sc, &st)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := refine.BasicAll(cands, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Answer, len(cands))
		for i, cand := range cands {
			b := verify.Bounds{L: probs[i], U: probs[i]}
			rows[i] = Answer{ID: cand.ID, Bounds: b, Status: verify.Classify(b, c)}
		}
		sc.park()
		res, err := eng2.CPNN(q, c, Options{Strategy: Basic, Bins: 32})
		if err != nil {
			t.Fatal(err)
		}
		if want := sortedByID(rows); !slices.Equal(res.Candidates, want) {
			t.Fatalf("set %d: 2-D Basic lists %v, want %v", set, res.Candidates, want)
		}
	}
	if unsorted == 0 {
		t.Fatal("every 2-D candidate list came ID-ascending; the sets should exercise ranking by ID")
	}
}
