package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// The incremental equivalence suite: replay 50 seeded op sequences over a
// store-like mutable object world (stable IDs, dense slots with
// swap-into-hole deletes) and assert, at every version, that the incremental
// entry points produce results bit-identical to a from-scratch evaluation on
// the same view — bounds, classifications and Stats.FMin — and that an
// early-exit (Skipped) only ever happens when the fresh answer is indeed
// unchanged from the previous version.

// mutWorld is the simulated store: objects by stable ID, dense slot layout
// with the same swap-into-hole delete semantics as internal/store, so dense
// reshuffles (which the incremental path must survive) actually happen.
type mutWorld struct {
	slots []uint64
	objs  map[uint64]pdf.Uniform
	next  uint64
}

func newMutWorld(rng *rand.Rand, n int) *mutWorld {
	w := &mutWorld{objs: map[uint64]pdf.Uniform{}}
	for i := 0; i < n; i++ {
		w.insert(rng)
	}
	return w
}

func randUniform(rng *rand.Rand) pdf.Uniform {
	lo := rng.Float64() * 100
	return pdf.MustUniform(lo, lo+0.5+rng.Float64()*5)
}

func (w *mutWorld) insert(rng *rand.Rand) uint64 {
	id := w.next
	w.next++
	w.objs[id] = randUniform(rng)
	w.slots = append(w.slots, id)
	return id
}

// step applies 1..4 random ops and returns the changed stable IDs as the
// changed set's keys; its values are unread. draw consumes the coin each op
// once tossed for a dense-slot hint, so every seed replays the op sequence
// it always has.
func (w *mutWorld) step(rng *rand.Rand) map[uint64]int {
	changed := map[uint64]int{}
	draw := func() int {
		rng.Intn(2)
		return 0
	}
	n := 1 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		n = 1 // plenty of single-op commits: one fold derived, the rest reused
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(4); {
		case r == 0: // insert
			changed[w.insert(rng)] = draw()
		case r == 1 && len(w.slots) > 5: // delete, swap-into-hole
			slot := rng.Intn(len(w.slots))
			id := w.slots[slot]
			last := len(w.slots) - 1
			w.slots[slot] = w.slots[last]
			w.slots = w.slots[:last]
			delete(w.objs, id)
			changed[id] = draw()
		default: // update in place
			slot := rng.Intn(len(w.slots))
			id := w.slots[slot]
			u := w.objs[id]
			sup := u.Support()
			if rng.Intn(2) == 0 {
				// Small nudge: stays near its old position, likely inside
				// the same candidate balls.
				d := (rng.Float64() - 0.5) * 2
				w.objs[id] = pdf.MustUniform(sup.Lo+d, sup.Hi+d)
			} else {
				w.objs[id] = randUniform(rng)
			}
			changed[id] = draw()
		}
	}
	return changed
}

// view materializes the world into a dataset, its dense→stable map and a
// fresh engine, exactly as the monitor sees one MVCC view.
func (w *mutWorld) view(t *testing.T) (*Engine, []uint64) {
	t.Helper()
	pdfs := make([]pdf.PDF, len(w.slots))
	ids := make([]uint64, len(w.slots))
	for i, id := range w.slots {
		pdfs[i] = w.objs[id]
		ids[i] = id
	}
	e, err := NewEngine(uncertain.NewDataset(pdfs))
	if err != nil {
		t.Fatal(err)
	}
	return e, ids
}

// stableAns is an answer canonicalized the way the monitor compares bodies:
// stable IDs and bounds quantized to 1e-9, absorbing the low-bit jitter a
// dense reshuffle introduces into otherwise-unchanged products.
type stableAns struct {
	l, u   float64
	status verify.Status
}

func round9(v float64) float64 { return math.Round(v*1e9) / 1e9 }

func canonCPNN(res *Result, ids []uint64) map[uint64]stableAns {
	m := map[uint64]stableAns{}
	for _, a := range res.Candidates {
		m[ids[a.ID]] = stableAns{round9(a.Bounds.L), round9(a.Bounds.U), a.Status}
	}
	return m
}

func canonKNN(out []KNNAnswer, ids []uint64) map[uint64]stableAns {
	m := map[uint64]stableAns{}
	for _, a := range out {
		m[ids[a.ID]] = stableAns{round9(a.Bounds.L), round9(a.Bounds.U), a.Status}
	}
	return m
}

func canonPNN(out []Probability, ids []uint64) map[uint64]stableAns {
	m := map[uint64]stableAns{}
	for _, p := range out {
		m[ids[p.ID]] = stableAns{l: round9(p.P)}
	}
	return m
}

func sameCanon(a, b map[uint64]stableAns) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		if b[id] != v {
			return false
		}
	}
	return true
}

// foldAccounting checks an incremental step's fold counts against the
// candidate sets by stable ID: the step derives exactly the fresh candidates
// that changed or were not candidates at the previous step, and reuses every
// other one.
func foldAccounting(inc IncrementalStats, fresh, prev map[uint64]stableAns, changed map[uint64]int) error {
	derive := 0
	for id := range fresh {
		_, isChanged := changed[id]
		_, was := prev[id]
		if isChanged || !was {
			derive++
		}
	}
	if inc.Derived != derive || inc.Reused+inc.Derived != len(fresh) {
		return fmt.Errorf("reused %d and derived %d folds over %d candidates, want %d derived",
			inc.Reused, inc.Derived, len(fresh), derive)
	}
	return nil
}

func TestIncrementalEquivalence(t *testing.T) {
	const seeds = 50
	c := verify.Constraint{P: 0.25, Delta: 0.01}
	var aggMu sync.Mutex
	var agg IncrementalStats
	skips := 0
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := newMutWorld(rng, 40)
			qC := rng.Float64() * 100
			qP := rng.Float64() * 100
			qK := rng.Float64() * 100
			optC := Options{}
			knnOpt := KNNOptions{K: 3}

			stC, stP, stK := NewEvalState(), NewEvalState(), NewEvalState()
			var prevC, prevP, prevK map[uint64]stableAns

			for step := 0; step < 10; step++ {
				var changed map[uint64]int
				if step > 0 {
					changed = w.step(rng)
				} else {
					changed = nil // first call: full derivation
				}
				eng, ids := w.view(t)

				// CPNN
				want, err := eng.CPNN(qC, c, optC)
				if err != nil {
					t.Fatal(err)
				}
				got, inc, err := eng.CPNNIncremental(qC, c, optC, stC, ids, changed)
				if err != nil {
					t.Fatal(err)
				}
				aggMu.Lock()
				agg.Reused += inc.Reused
				agg.Derived += inc.Derived
				if inc.Skipped {
					skips++
				}
				aggMu.Unlock()
				freshC := canonCPNN(want, ids)
				if step > 0 && !inc.Skipped {
					if err := foldAccounting(inc, freshC, prevC, changed); err != nil {
						t.Errorf("step %d: cpnn %v", step, err)
					}
				}
				if inc.Skipped {
					if !sameCanon(freshC, prevC) {
						t.Fatalf("step %d: cpnn skipped but fresh answer changed", step)
					}
				} else {
					if got.Stats.FMin != want.Stats.FMin {
						t.Fatalf("step %d: cpnn FMin %g vs %g", step, got.Stats.FMin, want.Stats.FMin)
					}
					if got.Stats.Candidates != want.Stats.Candidates ||
						got.Stats.Subregions != want.Stats.Subregions {
						t.Fatalf("step %d: cpnn shape (%d,%d) vs (%d,%d)", step,
							got.Stats.Candidates, got.Stats.Subregions,
							want.Stats.Candidates, want.Stats.Subregions)
					}
					if len(got.Candidates) != len(want.Candidates) {
						t.Fatalf("step %d: cpnn %d candidates vs %d", step, len(got.Candidates), len(want.Candidates))
					}
					for i := range got.Candidates {
						if got.Candidates[i] != want.Candidates[i] {
							t.Fatalf("step %d: cpnn candidate %d: %+v vs %+v (reused=%d derived=%d)",
								step, i, got.Candidates[i], want.Candidates[i], inc.Reused, inc.Derived)
						}
					}
					if len(got.Answers) != len(want.Answers) {
						t.Fatalf("step %d: cpnn %d answers vs %d", step, len(got.Answers), len(want.Answers))
					}
				}
				prevC = freshC

				// PNN
				wantP, wantPSt, err := eng.PNN(qP, Options{})
				if err != nil {
					t.Fatal(err)
				}
				gotP, gotPSt, incP, err := eng.PNNIncremental(qP, Options{}, stP, ids, changed)
				if err != nil {
					t.Fatal(err)
				}
				freshP := canonPNN(wantP, ids)
				if step > 0 && !incP.Skipped {
					if err := foldAccounting(incP, freshP, prevP, changed); err != nil {
						t.Errorf("step %d: pnn %v", step, err)
					}
				}
				if incP.Skipped {
					aggMu.Lock()
					skips++
					aggMu.Unlock()
					if !sameCanon(freshP, prevP) {
						t.Fatalf("step %d: pnn skipped but fresh answer changed", step)
					}
				} else {
					if gotPSt.FMin != wantPSt.FMin {
						t.Fatalf("step %d: pnn FMin %g vs %g", step, gotPSt.FMin, wantPSt.FMin)
					}
					if len(gotP) != len(wantP) {
						t.Fatalf("step %d: pnn %d probs vs %d", step, len(gotP), len(wantP))
					}
					for i := range gotP {
						if gotP[i] != wantP[i] {
							t.Fatalf("step %d: pnn entry %d: %+v vs %+v", step, i, gotP[i], wantP[i])
						}
					}
				}
				prevP = freshP

				// KNN
				wantK, wantKSt, err := eng.CKNN(qK, c, KNNOptions{
					K: knnOpt.K,
				})
				if err != nil {
					t.Fatal(err)
				}
				gotK, gotKSt, incK, err := eng.KNNIncremental(qK, c, knnOpt, stK, ids, changed)
				if err != nil {
					t.Fatal(err)
				}
				freshK := canonKNN(wantK, ids)
				if step > 0 && !incK.Skipped && knnOpt.K < len(ids) {
					if err := foldAccounting(incK, freshK, prevK, changed); err != nil {
						t.Errorf("step %d: knn %v", step, err)
					}
				}
				if incK.Skipped {
					aggMu.Lock()
					skips++
					aggMu.Unlock()
					if !sameCanon(freshK, prevK) {
						t.Fatalf("step %d: knn skipped but fresh answer changed", step)
					}
				} else {
					if gotKSt.FMin != wantKSt.FMin {
						t.Fatalf("step %d: knn f_k %g vs %g", step, gotKSt.FMin, wantKSt.FMin)
					}
					if len(gotK) != len(wantK) {
						t.Fatalf("step %d: knn %d answers vs %d", step, len(gotK), len(wantK))
					}
					for i := range gotK {
						if gotK[i] != wantK[i] {
							t.Fatalf("step %d: knn answer %d: %+v vs %+v", step, i, gotK[i], wantK[i])
						}
					}
				}
				prevK = freshK

				if stC.MemBytes() < 0 || stP.MemBytes() < 0 || stK.MemBytes() < 0 {
					t.Fatalf("step %d: negative state accounting", step)
				}
			}
		})
	}
	t.Cleanup(func() {
		// The suite must actually exercise the incremental machinery, not
		// just fall through to full derivations.
		if agg.Reused == 0 {
			t.Error("no fold was ever reused across 50 seeds")
		}
		if skips == 0 {
			t.Error("the early exit never fired across 50 seeds")
		}
	})
}

// TestIncrementalChangedNil: a nil changed set must force a full
// re-derivation (the state can't know what it missed), not silently reuse.
func TestIncrementalChangedNil(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := newMutWorld(rng, 20)
	eng, ids := w.view(t)
	st := NewEvalState()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	if _, inc, err := eng.CPNNIncremental(50, c, Options{}, st, ids, nil); err != nil {
		t.Fatal(err)
	} else if inc.Reused != 0 || inc.Skipped {
		t.Fatalf("first evaluation reused/skipped: %+v", inc)
	}
	if !st.Valid() {
		t.Fatal("state not valid after evaluation")
	}
	// Mutate an object behind the state's back, then evaluate with nil
	// changed: everything must be re-derived and the answer must match a
	// fresh evaluation.
	id := w.slots[0]
	w.objs[id] = pdf.MustUniform(48, 52)
	eng2, ids2 := w.view(t)
	got, inc, err := eng2.CPNNIncremental(50, c, Options{}, st, ids2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Reused != 0 || inc.Skipped {
		t.Fatalf("nil changed must disable reuse: %+v", inc)
	}
	want, err := eng2.CPNN(50, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%d candidates vs %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("candidate %d: %+v vs %+v", i, got.Candidates[i], want.Candidates[i])
		}
	}
}

// TestIncrementalStateErrors: malformed calls are rejected before touching
// the state.
func TestIncrementalStateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newMutWorld(rng, 5)
	eng, ids := w.view(t)
	c := verify.Constraint{P: 0.3}
	if _, _, err := eng.CPNNIncremental(1, c, Options{}, nil, ids, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, _, err := eng.CPNNIncremental(1, c, Options{}, NewEvalState(), ids[:2], nil); err == nil {
		t.Fatal("short ids accepted")
	}
	if _, _, _, err := eng.KNNIncremental(1, c, KNNOptions{K: 0}, NewEvalState(), ids, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	// A standing query runs the paper's method only: a baseline is an error,
	// never a silent VR evaluation.
	for _, s := range []Strategy{Refine, Basic} {
		if _, _, err := eng.CPNNIncremental(1, c, Options{Strategy: s}, NewEvalState(), ids, nil); err == nil {
			t.Fatalf("CPNNIncremental accepted strategy %v", s)
		}
	}
}

// identityIDs maps each of n dense slots to the stable ID of the same
// number, the ID map of a dataset that has never changed.
func identityIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// foldsBytes is what an EvalState's next evaluation reads back, counted
// from the state's contents: each cached fold with its entry overhead.
func foldsBytes(st *EvalState) int {
	n := 0
	for _, cf := range st.folds {
		n += cf.h.MemBytes() + foldEntryOverhead
	}
	return n
}

// TestEvalStateHoldsFoldsOnly: after every CPNN, PNN and k-NN incremental
// step, a state accounts its cached folds and nothing else — the subregion
// table, the candidate buffer and the filter's hits live on a pooled
// scratch, not in the state. On a query whose table is ≈4 MB the state stays
// under one byte per table cell.
func TestEvalStateHoldsFoldsOnly(t *testing.T) {
	check := func(what string, st *EvalState) {
		t.Helper()
		if got, want := st.MemBytes(), foldsBytes(st); got != want {
			t.Fatalf("%s: MemBytes %d, want folds %d", what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	w := newMutWorld(rng, 60)
	c := verify.Constraint{P: 0.25, Delta: 0.01}
	stC, stP, stK := NewEvalState(), NewEvalState(), NewEvalState()
	for step := 0; step < 12; step++ {
		var changed map[uint64]int
		if step > 0 {
			changed = w.step(rng)
		}
		eng, ids := w.view(t)
		if _, _, err := eng.CPNNIncremental(40, c, Options{}, stC, ids, changed); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d cpnn", step), stC)
		if _, _, _, err := eng.PNNIncremental(60, Options{}, stP, ids, changed); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d pnn", step), stP)
		if _, _, _, err := eng.KNNIncremental(50, c, KNNOptions{K: 3}, stK, ids, changed); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d knn", step), stK)
	}

	eng, err := NewEngine(capFixture())
	if err != nil {
		t.Fatal(err)
	}
	ids := identityIDs(eng.Dataset().Len())
	st := NewEvalState()
	res, _, err := eng.CPNNIncremental(1020, c, Options{}, st, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("large cpnn", st)
	if cells := res.Stats.Candidates * (res.Stats.Subregions + 1); st.MemBytes() >= cells {
		t.Fatalf("a state over %d candidates × %d subregions holds %d bytes, at least one a table cell",
			res.Stats.Candidates, res.Stats.Subregions, st.MemBytes())
	}
}

// TestIncrementalAllocations: a warm standing C-PNN whose step changes one
// of its candidates filters, re-derives that one fold and rebuilds its
// table on a pooled scratch in a bounded number of allocations — the cost
// every monitor evaluation that does not exit early pays on top of the
// verifiers'.
func TestIncrementalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	eng, qs := longBeachEngine(t, 6000, 23)
	ids := identityIDs(eng.Dataset().Len())
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	states := make([]*EvalState, len(qs))
	changed := make([]map[uint64]int, len(qs))
	for i, q := range qs {
		states[i] = NewEvalState()
		if _, _, err := eng.CPNNIncremental(q, c, Options{}, states[i], ids, nil); err != nil {
			t.Fatal(err)
		}
		hits, _ := eng.candidates(q, 1, nil)
		changed[i] = map[uint64]int{ids[hits[len(hits)/2].ID]: 0}
	}
	run := func() {
		for i, q := range qs {
			_, inc, err := eng.CPNNIncremental(q, c, Options{}, states[i], ids, changed[i])
			if err != nil {
				t.Fatal(err)
			}
			if inc.Skipped || inc.Derived != 1 {
				t.Fatalf("q=%v: skipped %v, derived %d; want one fold re-derived", q, inc.Skipped, inc.Derived)
			}
		}
	}
	run()
	perQuery := testing.AllocsPerRun(5, run) / float64(len(qs))
	t.Logf("a warm CPNNIncremental step with one changed candidate allocates %.2f objects a query", perQuery)
	if perQuery > 16 {
		t.Fatalf("a warm CPNNIncremental step allocates %.2f objects a query, want at most 16", perQuery)
	}
}

// TestIncrementalConcurrentStates: two goroutines evaluating their own
// states on the same sequence of engines answer byte for byte as the same
// evaluations run one after another. Under -race this is the contract that
// standing queries share nothing but the engine and core's scratch pool.
func TestIncrementalConcurrentStates(t *testing.T) {
	type view struct {
		eng     *Engine
		ids     []uint64
		changed map[uint64]int
	}
	rng := rand.New(rand.NewSource(5))
	w := newMutWorld(rng, 60)
	views := make([]view, 12)
	for i := range views {
		if i > 0 {
			views[i].changed = w.step(rng)
		}
		views[i].eng, views[i].ids = w.view(t)
	}
	c := verify.Constraint{P: 0.25, Delta: 0.01}
	// run evaluates one standing query of each kind around q over every view
	// and returns the digest of its answers.
	run := func(q float64) (string, error) {
		stC, stP, stK := NewEvalState(), NewEvalState(), NewEvalState()
		d := newDigest()
		for _, v := range views {
			res, inc, err := v.eng.CPNNIncremental(q, c, Options{}, stC, v.ids, v.changed)
			if err != nil {
				return "", err
			}
			d.result(res)
			d.inc(inc)
			ps, st, inc, err := v.eng.PNNIncremental(q+7, Options{}, stP, v.ids, v.changed)
			if err != nil {
				return "", err
			}
			d.probs(ps)
			d.stats(st)
			d.inc(inc)
			as, st, inc, err := v.eng.KNNIncremental(q-5, c, KNNOptions{K: 3}, stK, v.ids, v.changed)
			if err != nil {
				return "", err
			}
			d.knn(as, st)
			d.inc(inc)
		}
		return d.sum(), nil
	}
	qs := [2]float64{30, 70}
	var want, got [2]string
	var errs [2]error
	for i, q := range qs {
		if want[i], errs[i] = run(q); errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(q)
		}()
	}
	wg.Wait()
	for i := range qs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("query at %g: concurrent answers digest %s, sequential %s", qs[i], got[i], want[i])
		}
	}
}
