package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// untimed strips the wall-clock fields, the only part of a Stats that
// differs between two evaluations of one query.
func untimed(s Stats) Stats {
	s.FilterTime, s.InitTime, s.TableTime, s.VerifyTime, s.RefineTime = 0, 0, 0, 0, 0
	return s
}

// pooledEngine is the pooled half of the pipeline, the same on Engine and
// Engine2D.
type pooledEngine[Q any] interface {
	CPNN(Q, verify.Constraint, Options) (*Result, error)
	PNN(Q, Options) ([]Probability, Stats, error)
	cpnn(Q, verify.Constraint, Options, *queryScratch) (*Result, error)
}

// checkNoAlias evaluates a, then b, and requires what a returned to still
// equal a fresh evaluation of a: a result that kept a slice of the table,
// the candidate buffer or the arena would have been overwritten by b. The
// C-PNN half runs a and b on one borrowed scratch, released between them as
// park would, so b is sure to reuse a's buffers; the PNN half goes through
// the pool, as callers do.
func checkNoAlias[Q any](t *testing.T, e pooledEngine[Q], a, b Q) {
	t.Helper()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	sc := borrow()
	defer sc.park()
	for _, strat := range []Strategy{VR, Refine, Basic} {
		opt := Options{Strategy: strat}
		got, err := e.cpnn(a, c, opt.withDefaults(), sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.release()
		if len(got.Candidates) == 0 {
			t.Fatalf("%v: query %v has no candidates; the fixture should", strat, a)
		}
		if _, err := e.cpnn(b, c, opt.withDefaults(), sc); err != nil {
			t.Fatal(err)
		}
		sc.release()
		want, err := e.CPNN(a, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		got.Stats, want.Stats = untimed(got.Stats), untimed(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: the result of %v changed once its scratch served %v:\n got %+v\nwant %+v", strat, a, b, got, want)
		}
	}

	got, gst, err := e.PNN(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PNN(b, Options{}); err != nil {
		t.Fatal(err)
	}
	want, wst, err := e.PNN(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(untimed(gst), untimed(wst)) {
		t.Fatalf("PNN of %v changed once the pool served %v:\n got %+v %+v\nwant %+v %+v", a, b, got, gst, want, wst)
	}
}

// longBeachEngine builds an engine over n objects of the Long-Beach-like
// generator and returns it with a 48-point query workload.
func longBeachEngine(t testing.TB, n int, seed int64) (*Engine, []float64) {
	t.Helper()
	opt := uncertain.LongBeachOptions(seed)
	opt.N = n
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	return eng, uncertain.QueryWorkload(48, opt.Domain, seed+100)
}

// TestScratchResultsDoNotAlias: what CPNN and PNN return stays valid while
// the pooled scratch they ran on goes on to other queries — the property
// the scratch pool rests on, since a caller reads a result after its
// scratch went back to the pool. The second query is the larger one, so
// every buffer the first result could alias is rewritten.
func TestScratchResultsDoNotAlias(t *testing.T) {
	t.Run("1D", func(t *testing.T) {
		eng, qs := longBeachEngine(t, 6000, 23)
		small, large, most := qs[0], qs[0], 0
		for _, q := range qs {
			res, err := eng.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Stats.Candidates; n > most {
				large, most = q, n
			}
		}
		if small == large {
			small = qs[1]
		}
		checkNoAlias[float64](t, eng, small, large)
	})
	t.Run("2D", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		objs := make([]Object2D, 80)
		for i := range objs {
			objs[i] = Object2D{ID: i, Region: geom.Circle{
				Center: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 0.5 + rng.Float64()*4,
			}}
		}
		eng, err := NewEngine2D(objs)
		if err != nil {
			t.Fatal(err)
		}
		checkNoAlias[geom.Point](t, eng, geom.Point{X: 20, Y: 30}, geom.Point{X: 50, Y: 50})
	})
}

// TestScratchReleaseDropsCandidates: a released scratch references none of
// its last query's distance pdfs, keeps its float storage while within the
// retention cap, and serves the next query like a fresh one.
func TestScratchReleaseDropsCandidates(t *testing.T) {
	eng, qs := longBeachEngine(t, 6000, 23)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	opt := Options{}.withDefaults()

	sc := borrow()
	defer sc.park()
	want, err := eng.cpnn(qs[0], c, opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.memBytes()
	if before <= 0 {
		t.Fatal("a used scratch reports no retained memory")
	}
	sc.release()
	for i, cand := range sc.cands[:cap(sc.cands)] {
		if cand.Dist != nil {
			t.Fatalf("candidate buffer slot %d still holds a distance pdf after release", i)
		}
	}
	if n := sc.table.NumCandidates(); n != 0 {
		t.Fatalf("table still lists %d candidates after release", n)
	}
	if after := sc.memBytes(); after != before {
		t.Fatalf("release changed the retained size: %d -> %d (float storage must stay)", before, after)
	}
	got, err := eng.cpnn(qs[0], c, opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Fatal("a released scratch answers differently")
	}
}

// capFixture is a dataset whose query at 1020 outgrows the 1 MiB retention
// cap: 300 staggered intervals over one stretch keep all of them as
// candidates with ≈600 distinct end-points, a table of ≈300×600 cells ×
// 24 B ≈ 4 MB. The sparse tail beyond 2000 holds ordinary queries.
func capFixture() *uncertain.Dataset {
	var pdfs []pdf.PDF
	for i := 0; i < 300; i++ {
		pdfs = append(pdfs, pdf.MustUniform(1000+0.01*float64(i), 1040+0.013*float64(i)))
	}
	for i := 0; i < 400; i++ {
		pdfs = append(pdfs, pdf.MustUniform(2000+10*float64(i), 2025+10*float64(i)))
	}
	return uncertain.NewDataset(pdfs)
}

// TestScratchRetentionCapped: a query whose table outgrows scratchCap leaves
// nothing over the cap parked — not after a single query, concurrent ones or a
// standing query's incremental evaluation. What it leaves is the warm
// scratch it found: the table an ordinary query grew survives the large one,
// and answers the next query like before.
func TestScratchRetentionCapped(t *testing.T) {
	eng, err := NewEngine(capFixture())
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	opt := Options{}.withDefaults()
	want, err := eng.CPNN(2010, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := borrow()
	if _, err := eng.cpnn(2010, c, opt, sc); err != nil {
		t.Fatal(err)
	}
	sc.release()
	warm := sc.table.MemBytes()
	if warm == 0 {
		t.Fatal("an ordinary query left its scratch without a table")
	}
	res, err := eng.cpnn(1020, c, opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.memBytes() <= scratchCap {
		t.Fatalf("the large query (%d candidates × %d subregions) retains only %d bytes; the fixture must exceed the %d cap",
			res.Stats.Candidates, res.Stats.Subregions, sc.memBytes(), scratchCap)
	}
	sc.release()
	if b := sc.memBytes(); b > scratchCap {
		t.Fatalf("a released scratch retains %d bytes, over the %d cap", b, scratchCap)
	}
	if b := sc.table.MemBytes(); b != warm {
		t.Fatalf("the warm table (%d bytes) came back from the large query at %d bytes", warm, b)
	}
	got, err := eng.cpnn(2010, c, opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.park()
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Fatal("a scratch back from an over-cap query answers differently")
	}

	checkPool := func(after string) {
		t.Helper()
		parked := make([]*queryScratch, 8)
		for i := range parked {
			parked[i] = borrow()
			if b := parked[i].memBytes(); b > scratchCap {
				t.Errorf("after %s a pooled scratch retains %d bytes, over the %d cap", after, b, scratchCap)
			}
		}
		for _, p := range parked {
			p.park()
		}
	}
	if _, err := eng.CPNN(1020, c, Options{}); err != nil {
		t.Fatal(err)
	}
	checkPool("a single query")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range []float64{1020, 2010} {
				if _, err := eng.CPNN(q, c, Options{}); err != nil {
					errs[i] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkPool("concurrent queries")

	// A standing query rebuilds its table on a pooled scratch as well, so an
	// incremental evaluation past the cap parks within it too.
	ids := identityIDs(eng.Dataset().Len())
	inc, _, err := eng.CPNNIncremental(1020, c, Options{}, NewEvalState(), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cells := inc.Stats.Candidates * (inc.Stats.Subregions + 1); 24*cells <= scratchCap {
		t.Fatalf("the incremental evaluation's table has only %d cells; the fixture must exceed the %d cap", cells, scratchCap)
	}
	checkPool("an incremental evaluation")
}

// TestCPNNAllocations: a warm Engine.CPNN runs on a pooled scratch, so what
// it allocates is its result and bookkeeping (≈9 objects a query here) —
// not a subregion table, candidate ID list and buffer and fold histogram per
// query, which cost ≈96 objects a query on this fixture (≈13 while the
// filter still grew a fresh ID list per query).
func TestCPNNAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	eng, qs := longBeachEngine(t, 6000, 23)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	run := func() {
		for _, q := range qs {
			if _, err := eng.CPNN(q, c, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	perQuery := testing.AllocsPerRun(5, run) / float64(len(qs))
	t.Logf("a warm Engine.CPNN allocates %.1f objects a query", perQuery)
	if perQuery > 10 {
		t.Fatalf("a warm Engine.CPNN allocates %.1f objects a query, want at most 10", perQuery)
	}
}

// TestStatsTableTimeInsideInitTime: a cold C-PNN reports the subregion
// table's share of initialization, strictly inside InitTime (derivation is
// the rest), and PNN — which builds the same table — does too.
func TestStatsTableTimeInsideInitTime(t *testing.T) {
	e := genEngine(t, 2000, 5)
	res, err := e.CPNN(500, verify.Constraint{P: 0.3, Delta: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; !(st.TableTime > 0 && st.TableTime < st.InitTime) {
		t.Fatalf("CPNN: 0 < table %v < init %v does not hold", st.TableTime, st.InitTime)
	}
	_, st, err := e.PNN(500, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(st.TableTime > 0 && st.TableTime < st.InitTime) {
		t.Fatalf("PNN: 0 < table %v < init %v does not hold", st.TableTime, st.InitTime)
	}
	// Basic integrates candidates directly and builds no table.
	res, err = e.CPNN(500, verify.Constraint{P: 0.3, Delta: 0.01}, Options{Strategy: Basic})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TableTime != 0 {
		t.Fatalf("Basic built no table but reports table time %v", res.Stats.TableTime)
	}
}

// TestDeriveUniformThroughArenaAllocatesNothing: deriving a uniform object's
// distance pdf on a warm arena is allocation-free, for a query point inside
// the region and outside it. distFor once re-boxed the unwrapped pdf.Uniform
// into an interface on the way to the fold — one heap object per candidate,
// most of what a scratch evaluation still allocated.
func TestDeriveUniformThroughArenaAllocatesNothing(t *testing.T) {
	obj := uncertain.Object{ID: 0, PDF: pdf.MustUniform(10, 20)}
	var dv deriver
	var a pdf.Alloc
	for _, q := range []float64{12, 15, 40} {
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := dv.distFor(obj, q, 0, &a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("q=%g: deriving a uniform candidate through the arena allocates %g objects, want 0", q, allocs)
		}
	}
}
