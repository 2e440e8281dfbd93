package core

import (
	"math/rand"
	"reflect"
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

// scratchEngine is the scratch-taking half of the pipeline, the same on
// Engine and Engine2D.
type scratchEngine[Q any] interface {
	CPNNScratch(Q, verify.Constraint, Options, *Scratch) (*Result, error)
	PNNScratch(Q, Options, *Scratch) ([]Probability, Stats, error)
}

// checkNoAlias evaluates a, then b, on one scratch and requires what a
// returned to still equal a fresh evaluation of a on a pooled scratch: a
// result that kept a slice of the table, the candidate buffer or the arena
// would have been overwritten by b.
func checkNoAlias[Q any](t *testing.T, e scratchEngine[Q], a, b Q) {
	t.Helper()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, strat := range []Strategy{VR, Refine, Basic} {
		opt := Options{Strategy: strat}
		sc := NewScratch()
		got, err := e.CPNNScratch(a, c, opt, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Candidates) == 0 {
			t.Fatalf("%v: query %v has no candidates; the fixture should", strat, a)
		}
		if _, err := e.CPNNScratch(b, c, opt, sc); err != nil {
			t.Fatal(err)
		}
		sc.Release()
		want, err := e.CPNNScratch(a, c, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.Stats, want.Stats = untimed(got.Stats), untimed(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: the result of %v changed once the scratch served %v:\n got %+v\nwant %+v", strat, a, b, got, want)
		}
	}

	sc := NewScratch()
	got, gst, err := e.PNNScratch(a, Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PNNScratch(b, Options{}, sc); err != nil {
		t.Fatal(err)
	}
	sc.Release()
	want, wst, err := e.PNNScratch(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(untimed(gst), untimed(wst)) {
		t.Fatalf("PNN of %v changed once the scratch served %v:\n got %+v %+v\nwant %+v %+v", a, b, got, gst, want, wst)
	}
}

// TestScratchResultsDoNotAlias: what CPNNScratch and PNNScratch return stays
// valid while the scratch goes on to other queries and is released — the
// property the scratch pool rests on, since a caller reads a result after
// its scratch went back to the pool. The second query is the larger one, so
// every buffer the first result could alias is rewritten.
func TestScratchResultsDoNotAlias(t *testing.T) {
	t.Run("1D", func(t *testing.T) {
		eng, qs := batchTestEngine(t, 6000, 23)
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
	eng, qs := batchTestEngine(t, 6000, 23)
	c := verify.Constraint{P: 0.3, Delta: 0.01}

	sc := NewScratch()
	want, err := eng.CPNNScratch(qs[0], c, Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.MemBytes()
	if before <= 0 {
		t.Fatal("a used scratch reports no retained memory")
	}
	sc.Release()
	for i, cand := range sc.qs.cands[:cap(sc.qs.cands)] {
		if cand.Dist != nil {
			t.Fatalf("candidate buffer slot %d still holds a distance pdf after Release", i)
		}
	}
	if n := sc.qs.table.NumCandidates(); n != 0 {
		t.Fatalf("table still lists %d candidates after Release", n)
	}
	if after := sc.MemBytes(); after != before {
		t.Fatalf("Release changed the retained size: %d -> %d (float storage must stay)", before, after)
	}
	got, err := eng.CPNNScratch(qs[0], c, Options{}, sc)
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
// nothing over the cap parked — not in a caller-owned Scratch once
// released, not in the pool after a single query or a batch. What it
// leaves is the warm scratch it found: the table an ordinary query grew
// survives the large one, and answers the next query like before.
func TestScratchRetentionCapped(t *testing.T) {
	eng, err := NewEngine(capFixture())
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	want, err := eng.CPNN(2010, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	if _, err := eng.CPNNScratch(2010, c, Options{}, sc); err != nil {
		t.Fatal(err)
	}
	sc.Release()
	warm := sc.qs.table.MemBytes()
	if warm == 0 {
		t.Fatal("an ordinary query left its scratch without a table")
	}
	res, err := eng.CPNNScratch(1020, c, Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MemBytes() <= scratchCap {
		t.Fatalf("the large query (%d candidates × %d subregions) retains only %d bytes; the fixture must exceed the %d cap",
			res.Stats.Candidates, res.Stats.Subregions, sc.MemBytes(), scratchCap)
	}
	sc.Release()
	if b := sc.MemBytes(); b > scratchCap {
		t.Fatalf("a released scratch retains %d bytes, over the %d cap", b, scratchCap)
	}
	if b := sc.qs.table.MemBytes(); b != warm {
		t.Fatalf("the warm table (%d bytes) came back from the large query at %d bytes", warm, b)
	}
	got, err := eng.CPNNScratch(2010, c, Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Fatal("a scratch back from an over-cap query answers differently")
	}

	if _, err := eng.CPNN(1020, c, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CPNNBatch([]float64{1020, 2010, 1020, 3000}, c, BatchOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	parked := make([]*queryScratch, 8)
	for i := range parked {
		parked[i] = borrow()
		if b := parked[i].memBytes(); b > scratchCap {
			t.Errorf("a pooled scratch retains %d bytes, over the %d cap", b, scratchCap)
		}
	}
	for _, p := range parked {
		p.park()
	}
}

// TestCPNNAllocations: a warm Engine.CPNN runs on a pooled scratch, so what
// it allocates is its result and bookkeeping (≈19 objects a query here) —
// not a subregion table, candidate buffer and fold histogram per query,
// which cost ≈96 objects a query on this fixture.
func TestCPNNAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	eng, qs := batchTestEngine(t, 6000, 23)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	run := func() {
		for _, q := range qs {
			if _, err := eng.CPNN(q, c, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if perQuery := testing.AllocsPerRun(5, run) / float64(len(qs)); perQuery > 30 {
		t.Fatalf("a warm Engine.CPNN allocates %.1f objects a query, want at most 30", perQuery)
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
