package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// figure2Dataset mirrors the spirit of the paper's Fig. 2: four uncertain
// objects around a query point with distinct qualification probabilities.
func figure2Dataset(t *testing.T) *uncertain.Dataset {
	t.Helper()
	return uncertain.NewDataset([]pdf.PDF{
		pdf.MustUniform(8, 18),  // A: moderately near
		pdf.MustUniform(9, 13),  // B: tight and near -> biggest probability
		pdf.MustUniform(2, 30),  // C: wide -> small probability
		pdf.MustUniform(11, 17), // D: near but offset
	})
}

func smallEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(figure2Dataset(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func genEngine(t *testing.T, n int, seed int64) *Engine {
	t.Helper()
	ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
		N: n, Domain: 1000, MeanLen: 12, MinLen: 0.5, MaxLen: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPNNSumsToOne(t *testing.T) {
	e := smallEngine(t)
	probs, st, err := e.PNN(12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates == 0 {
		t.Fatal("no candidates")
	}
	sum := 0.0
	for _, p := range probs {
		sum += p.P
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σ p = %g", sum)
	}
	// Sorted descending.
	for i := 1; i < len(probs); i++ {
		if probs[i].P > probs[i-1].P {
			t.Error("PNN output not sorted by probability")
		}
	}
	// Object B (ID 1) is the tight region straddling q: it must win.
	if probs[0].ID != 1 {
		t.Errorf("top object = %d, want 1 (B)", probs[0].ID)
	}
}

func TestPNNMatchesMonteCarlo(t *testing.T) {
	e := smallEngine(t)
	q := 12.0
	probs, _, err := e.PNN(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fr := map[int]float64{}
	for _, p := range probs {
		fr[p.ID] = p.P
	}
	// Monte-Carlo over raw object values (not distance pdfs): an end-to-end
	// check of the whole pipeline including folding.
	rng := rand.New(rand.NewSource(123))
	const samples = 200000
	counts := map[int]float64{}
	objs := e.Dataset().Objects()
	for s := 0; s < samples; s++ {
		best, bi := math.Inf(1), -1
		for _, o := range objs {
			d := math.Abs(o.PDF.Sample(rng) - q)
			if d < best {
				best, bi = d, o.ID
			}
		}
		counts[bi]++
	}
	for id, want := range counts {
		want /= samples
		if got := fr[id]; math.Abs(got-want) > 0.006 {
			t.Errorf("object %d: PNN %g vs MC %g", id, got, want)
		}
	}
}

func TestCPNNStrategiesAgree(t *testing.T) {
	e := genEngine(t, 400, 11)
	qs := uncertain.QueryWorkload(8, 1000, 77)
	c := verify.Constraint{P: 0.3, Delta: 0}
	for _, q := range qs {
		var ids [3][]int
		for s, strat := range []Strategy{VR, Refine, Basic} {
			res, err := e.CPNN(q, c, Options{Strategy: strat, BasicSteps: 4000})
			if err != nil {
				t.Fatalf("q=%g %v: %v", q, strat, err)
			}
			ids[s] = res.AnswerIDs()
		}
		if !equalInts(ids[0], ids[1]) {
			t.Errorf("q=%g: VR %v != Refine %v", q, ids[0], ids[1])
		}
		if !equalInts(ids[0], ids[2]) {
			t.Errorf("q=%g: VR %v != Basic %v", q, ids[0], ids[2])
		}
	}
}

func TestCPNNAnswersRespectThreshold(t *testing.T) {
	e := genEngine(t, 300, 5)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	res, err := e.CPNN(500, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probs, _, err := e.PNN(500, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int]float64{}
	for _, p := range probs {
		exact[p.ID] = p.P
	}
	answers := map[int]bool{}
	for _, a := range res.Answers {
		answers[a.ID] = true
		if a.Status != verify.Satisfy {
			t.Errorf("answer %d has status %v", a.ID, a.Status)
		}
		// Every answer's exact probability is at least P − Delta
		// (Definition 1 allows at most Delta of under-threshold slack).
		if exact[a.ID] < c.P-c.Delta-1e-9 {
			t.Errorf("answer %d has exact probability %g < P−Δ", a.ID, exact[a.ID])
		}
	}
	// Conversely, every object with exact p >= P must be in the answers.
	for id, p := range exact {
		if p >= c.P+1e-9 && !answers[id] {
			t.Errorf("object %d (p=%g ≥ P) missing from answers", id, p)
		}
	}
}

func TestCPNNEmptyDataset(t *testing.T) {
	e, err := NewEngine(uncertain.NewDataset(nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CPNN(5, verify.Constraint{P: 0.3, Delta: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 || res.Stats.Candidates != 0 {
		t.Error("empty dataset produced answers")
	}
	if r, err := e.Min(verify.Constraint{P: 0.3}, Options{}); err != nil || len(r.Answers) != 0 {
		t.Errorf("Min on empty dataset: %v, %v", r, err)
	}
	if out, _, err := e.CKNN(5, verify.Constraint{P: 0.3}, KNNOptions{K: 2}); err != nil || out != nil {
		t.Errorf("CKNN on empty dataset: %v, %v", out, err)
	}
}

func TestCPNNInvalidConstraint(t *testing.T) {
	e := smallEngine(t)
	if _, err := e.CPNN(5, verify.Constraint{P: 0}, Options{}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := e.CPNN(5, verify.Constraint{P: 0.5, Delta: 2}, Options{}); err == nil {
		t.Error("Delta=2 accepted")
	}
}

func TestCPNNStatsPopulated(t *testing.T) {
	e := genEngine(t, 500, 3)
	res, err := e.CPNN(500, verify.Constraint{P: 0.3, Delta: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates == 0 || st.Subregions == 0 {
		t.Errorf("stats missing sizes: %+v", st)
	}
	if len(st.VerifiersApplied) == 0 || len(st.UnknownAfter) != len(st.VerifiersApplied) {
		t.Errorf("verifier trace missing: %+v", st)
	}
	if st.Total() <= 0 {
		t.Error("total time not positive")
	}
	if st.FMin <= 0 {
		t.Error("FMin not recorded")
	}
	// Candidate list covers the whole candidate set, sorted by ID.
	if len(res.Candidates) != st.Candidates {
		t.Errorf("candidates %d != stats %d", len(res.Candidates), st.Candidates)
	}
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].ID <= res.Candidates[i-1].ID {
			t.Error("candidates not sorted by ID")
		}
	}
}

func TestVRRefinesFewerThanRefine(t *testing.T) {
	e := genEngine(t, 1500, 9)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	var vrInt, refInt int
	for _, q := range uncertain.QueryWorkload(10, 1000, 13) {
		rv, err := e.CPNN(q, c, Options{Strategy: VR})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := e.CPNN(q, c, Options{Strategy: Refine})
		if err != nil {
			t.Fatal(err)
		}
		vrInt += rv.Stats.Integrations
		refInt += rr.Stats.Integrations
	}
	if vrInt > refInt {
		t.Errorf("VR used %d integrations, Refine used %d; verifiers should save work",
			vrInt, refInt)
	}
	t.Logf("integrations: VR=%d Refine=%d", vrInt, refInt)
}

func TestMinMaxQueries(t *testing.T) {
	// Three regions: [0,2] certainly below [5,7] and [6,9].
	ds := uncertain.NewDataset([]pdf.PDF{
		pdf.MustUniform(0, 2),
		pdf.MustUniform(5, 7),
		pdf.MustUniform(6, 9),
	})
	e, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Min(verify.Constraint{P: 0.9, Delta: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ids := res.AnswerIDs(); len(ids) != 1 || ids[0] != 0 {
		t.Errorf("Min answers = %v, want [0]", ids)
	}
	// Max: object 2 ([6,9]) overlaps object 1 ([5,7]) but dominates it.
	res, err = e.Max(verify.Constraint{P: 0.7, Delta: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ids := res.AnswerIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("Max answers = %v, want [2]", ids)
	}
}

func TestCKNNBasics(t *testing.T) {
	ds := uncertain.NewDataset([]pdf.PDF{
		pdf.MustUniform(9, 11),  // straddles q=10: certainly in any 2-NN set
		pdf.MustUniform(12, 14), // near
		pdf.MustUniform(30, 32), // far: out of 2-NN reach
		pdf.MustUniform(8, 12),  // straddles too
	})
	e, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.CKNN(10, verify.Constraint{P: 0.5, Delta: 0.05}, KNNOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]verify.Status{}
	for _, a := range out {
		got[a.ID] = a.Status
	}
	if got[0] != verify.Satisfy || got[3] != verify.Satisfy {
		t.Errorf("objects 0/3 should satisfy 2-NN: %v", got)
	}
	if st, ok := got[2]; ok && st == verify.Satisfy {
		t.Error("far object satisfied 2-NN")
	}
	// k = 1 must agree with the C-PNN winner direction.
	out1, _, err := e.CKNN(10, verify.Constraint{P: 0.5, Delta: 0.05}, KNNOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out1 {
		if a.ID == 2 && a.Status == verify.Satisfy {
			t.Error("far object won 1-NN")
		}
	}
	if _, _, err := e.CKNN(10, verify.Constraint{P: 0.5}, KNNOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCKNNKEqualsOneMatchesPNN(t *testing.T) {
	e := genEngine(t, 200, 21)
	q := 500.0
	probs, _, err := e.PNN(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int]float64{}
	for _, p := range probs {
		exact[p.ID] = p.P
	}
	out, _, err := e.CKNN(q, verify.Constraint{P: 0.99, Delta: 1}, KNNOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(probs) {
		t.Fatalf("CKNN classified %d candidates, PNN %d", len(out), len(probs))
	}
	for _, a := range out {
		p, ok := exact[a.ID]
		if !ok || a.Bounds.L != a.Bounds.U || math.Abs(a.Bounds.L-p) > 1e-12 {
			t.Errorf("object %d: CKNN bound [%.17g, %.17g], PNN %.17g (candidate: %v)",
				a.ID, a.Bounds.L, a.Bounds.U, p, ok)
		}
	}
}

// TestCKNNLargeK: a k at or beyond the dataset size answers every object
// with probability 1 without building a table — its memory stays linear in
// n, where a table over all n candidates holds |C|·M floats — and k = n/2
// still integrates to a total mass of exactly k.
func TestCKNNLargeK(t *testing.T) {
	const n = 2000
	e := genEngine(t, n, 29)
	q := 500.0
	c := verify.Constraint{P: 0.5, Delta: 0.01}
	for _, k := range []int{n / 2, n, 1 << 40} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, st, err := e.CKNN(q, c, KNNOptions{K: k})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, a := range out {
			if a.Bounds.L != a.Bounds.U || a.Bounds.L < 0 || a.Bounds.L > 1 {
				t.Fatalf("k=%d: object %d bound [%g, %g]", k, a.ID, a.Bounds.L, a.Bounds.U)
			}
			sum += a.Bounds.L
		}
		if want := float64(min(k, n)); math.Abs(sum-want) > 1e-9 {
			t.Errorf("k=%d: Σp = %.12g, want %g", k, sum, want)
		}
		if k < n {
			continue
		}
		if len(out) != n || st.Candidates != n || st.Subregions != 0 || sum != n {
			t.Errorf("k=%d: %d answers, %d candidates, %d subregions, Σp = %g; want every object at p = 1 and no table",
				k, len(out), st.Candidates, st.Subregions, sum)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("k=%d: CKNN allocated %d bytes over %d objects, want < 1 MiB", k, got, n)
		}
	}
}

func TestGaussianDatasetPipeline(t *testing.T) {
	ds, err := uncertain.GenerateGaussian(uncertain.GenOptions{
		N: 150, Domain: 600, MeanLen: 15, MinLen: 2, MaxLen: 60, Seed: 8,
	}, 120)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CPNN(300, verify.Constraint{P: 0.3, Delta: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against Basic with fine steps.
	resB, err := e.CPNN(300, verify.Constraint{P: 0.3, Delta: 0.01}, Options{Strategy: Basic, BasicSteps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.AnswerIDs(), resB.AnswerIDs()) {
		t.Errorf("Gaussian: VR %v vs Basic %v", res.AnswerIDs(), resB.AnswerIDs())
	}
}

func TestStrategyString(t *testing.T) {
	if VR.String() != "VR" || Refine.String() != "Refine" || Basic.String() != "Basic" {
		t.Error("strategy names wrong")
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy empty")
	}
}

// TestCPNNDecisionProperty: on random datasets and constraints, VR answers
// must contain every object with exact p >= P and no object with exact
// p < P − Delta.
func TestCPNNDecisionProperty(t *testing.T) {
	f := func(seed int64, pFrac, dFrac float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
			N: n, Domain: 500, MeanLen: 10, MinLen: 0.5, MaxLen: 50, Seed: seed,
		})
		if err != nil {
			return false
		}
		e, err := NewEngine(ds)
		if err != nil {
			return false
		}
		P := 0.05 + 0.9*math.Abs(math.Mod(pFrac, 1))
		D := 0.2 * math.Abs(math.Mod(dFrac, 1))
		q := 50 + rng.Float64()*400
		res, err := e.CPNN(q, verify.Constraint{P: P, Delta: D}, Options{})
		if err != nil {
			return false
		}
		probs, _, err := e.PNN(q, Options{})
		if err != nil {
			return false
		}
		inAnswer := map[int]bool{}
		for _, a := range res.Answers {
			inAnswer[a.ID] = true
		}
		for _, pr := range probs {
			if pr.P >= P+1e-9 && !inAnswer[pr.ID] {
				return false
			}
			if pr.P < P-D-1e-9 && inAnswer[pr.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDistanceCandidatesGaussianAnalytic(t *testing.T) {
	// An engine over analytic (non-histogram) pdfs must discretize on the
	// fly and still produce valid tables.
	g1, err := pdf.PaperGaussian(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := pdf.PaperGaussian(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(uncertain.NewDataset([]pdf.PDF{g1, g2}))
	if err != nil {
		t.Fatal(err)
	}
	probs, _, err := e.PNN(8, Options{Bins: 64})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p.P
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σ p = %g", sum)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCPNNDeterministic(t *testing.T) {
	// Identical seeds and queries must produce identical answers and
	// bounds — the engine has no hidden nondeterminism.
	run := func() []Answer {
		e := genEngine(t, 800, 31)
		res, err := e.CPNN(412.5, verify.Constraint{P: 0.25, Delta: 0.01}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Candidates
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestCKNNFilterMatchesLinearPredicate holds the index-backed k-NN filter to
// the definition it replaced a dataset scan for: f_k is the k-th smallest far
// point and the candidates are exactly the objects whose near point does not
// exceed it — in Stats and in the answer ID set, for k up to the population.
func TestCKNNFilterMatchesLinearPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		pdfs := make([]pdf.PDF, n)
		for i := range pdfs {
			pdfs[i] = digestPDF(t, "histogram", rng, 60)
		}
		ds := uncertain.NewDataset(pdfs)
		e, err := NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		q := rng.Float64()*80 - 10
		fars := make([]float64, n)
		for i := range fars {
			fars[i] = ds.Region(i).MaxDist(q)
		}
		sort.Float64s(fars)
		for _, k := range []int{1, 2, 3, 5, n} {
			fk := fars[min(k, n)-1]
			var want []int
			for i := 0; i < n; i++ {
				if ds.Region(i).MinDist(q) <= fk {
					want = append(want, i)
				}
			}
			out, st, err := e.CKNN(q, verify.Constraint{P: 0.3, Delta: 0.1}, KNNOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if st.FMin != fk || st.Candidates != len(want) {
				t.Fatalf("n=%d q=%v k=%d: f_k %v, %d candidates; linear predicate gives %v, %d",
					n, q, k, st.FMin, st.Candidates, fk, len(want))
			}
			got := make([]int, len(out))
			for i, a := range out {
				got[i] = a.ID
			}
			sort.Ints(got)
			if !equalInts(got, want) {
				t.Fatalf("n=%d q=%v k=%d: answer IDs %v, linear predicate keeps %v", n, q, k, got, want)
			}
		}
	}
}

// TestEngineRejectsNonFinite: every stateless 1-D entry point refuses a NaN
// or infinite query point before any engine work.
func TestEngineRejectsNonFinite(t *testing.T) {
	eng, err := NewEngine(figure2Dataset(t))
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := eng.CPNN(bad, c, Options{}); err == nil {
			t.Errorf("CPNN accepted %g", bad)
		}
		if _, _, err := eng.PNN(bad, Options{}); err == nil {
			t.Errorf("PNN accepted %g", bad)
		}
		if _, _, err := eng.CKNN(bad, c, KNNOptions{K: 2}); err == nil {
			t.Errorf("CKNN accepted %g", bad)
		}
	}
}
