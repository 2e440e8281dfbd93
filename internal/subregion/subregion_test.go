package subregion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/pdf"
)

// handTable builds the worked example used across the verifier tests:
//
//	X1: histogram edges {0,2,6}, masses {0.4, 0.6}   (n=0, f=6)
//	X2: uniform [1,5]                                 (n=1, f=5)
//	X3: uniform [3,8]                                 (n=3, f=8)
//
// f_min = 5, f_max = 8, end-points {0,1,2,3,5,8}, M = 5 subregions.
func handTable(t *testing.T) *Table {
	t.Helper()
	tb, err := Build([]Candidate{
		{ID: 10, Dist: pdf.MustHistogram([]float64{0, 2, 6}, []float64{0.4, 0.6})},
		{ID: 20, Dist: pdf.MustHistogram([]float64{1, 5}, []float64{1})},
		{ID: 30, Dist: pdf.MustHistogram([]float64{3, 8}, []float64{1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBuildHandExampleStructure(t *testing.T) {
	tb := handTable(t)
	if tb.NumCandidates() != 3 {
		t.Fatalf("candidates = %d", tb.NumCandidates())
	}
	if tb.NumSubregions() != 5 {
		t.Fatalf("M = %d, want 5", tb.NumSubregions())
	}
	wantEnds := []float64{0, 1, 2, 3, 5, 8}
	ends := tb.Endpoints()
	if len(ends) != len(wantEnds) {
		t.Fatalf("ends = %v", ends)
	}
	for i := range ends {
		if math.Abs(ends[i]-wantEnds[i]) > 1e-12 {
			t.Fatalf("ends[%d] = %g, want %g", i, ends[i], wantEnds[i])
		}
	}
	if tb.Cut() != 5 || tb.FMax() != 8 {
		t.Errorf("fMin/fMax = %g/%g, want 5/8", tb.Cut(), tb.FMax())
	}
	// Candidates sorted by near point: IDs 10, 20, 30.
	ids := tb.IDs()
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 30 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestBuildHandExampleMatrices(t *testing.T) {
	tb := handTable(t)
	wantD := [][]float64{
		{0, 0.2, 0.4, 0.55, 0.85, 1},
		{0, 0, 0.25, 0.5, 1, 1},
		{0, 0, 0, 0, 0.4, 1},
	}
	for i := range wantD {
		for j := range wantD[i] {
			if got := tb.D(i, j); math.Abs(got-wantD[i][j]) > 1e-12 {
				t.Errorf("D(%d,%d) = %g, want %g", i, j, got, wantD[i][j])
			}
		}
	}
	wantS := [][]float64{
		{0.2, 0.2, 0.15, 0.3, 0.15},
		{0, 0.25, 0.25, 0.5, 0},
		{0, 0, 0, 0.4, 0.6},
	}
	for i := range wantS {
		for j := range wantS[i] {
			if got := tb.S(i, j); math.Abs(got-wantS[i][j]) > 1e-12 {
				t.Errorf("S(%d,%d) = %g, want %g", i, j, got, wantS[i][j])
			}
		}
	}
	wantC := []int{1, 2, 2, 3, 2}
	for j, want := range wantC {
		if got := tb.Count(j); got != want {
			t.Errorf("Count(%d) = %d, want %d", j, got, want)
		}
	}
	wantY := []float64{1, 0.8, 0.45, 0.225, 0, 0}
	for j, want := range wantY {
		if got := tb.Y(j); math.Abs(got-want) > 1e-12 {
			t.Errorf("Y(%d) = %g, want %g", j, got, want)
		}
	}
	// Spot-check exclusive products.
	if got := tb.Excl(0, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Excl(0,3) = %g, want 0.5", got)
	}
	if got := tb.Excl(1, 4); math.Abs(got-0.15*0.6) > 1e-12 {
		t.Errorf("Excl(1,4) = %g, want 0.09", got)
	}
	if got := tb.Excl(2, 4); math.Abs(got-0) > 1e-12 {
		t.Errorf("Excl(2,4) = %g, want 0", got)
	}
	// Rightmost masses.
	wantRM := []float64{0.15, 0, 0.6}
	for i, want := range wantRM {
		if got := tb.RightmostMass(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("RightmostMass(%d) = %g, want %g", i, got, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err != ErrNoCandidates {
		t.Errorf("empty build: %v", err)
	}
	if _, err := Build([]Candidate{{ID: 1, Dist: nil}}); err == nil {
		t.Error("nil distance pdf accepted")
	}
	// A candidate whose near point exceeds f_min must be rejected: the
	// filter should have pruned it.
	_, err := Build([]Candidate{
		{ID: 1, Dist: pdf.MustHistogram([]float64{0, 2}, []float64{1})},
		{ID: 2, Dist: pdf.MustHistogram([]float64{10, 12}, []float64{1})},
	})
	if err == nil {
		t.Error("unpruned candidate accepted")
	}
}

func TestBuildSingleCandidate(t *testing.T) {
	tb, err := Build([]Candidate{
		{ID: 5, Dist: pdf.MustHistogram([]float64{2, 4, 7}, []float64{1, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	// f_min == f_max == 7: the rightmost subregion is the synthetic sliver.
	if tb.Cut() != 7 || tb.FMax() != 7 {
		t.Errorf("fMin/fMax = %g/%g", tb.Cut(), tb.FMax())
	}
	if got := tb.RightmostMass(0); got != 0 {
		t.Errorf("single candidate rightmost mass = %g, want 0", got)
	}
	// All mass is in the non-rightmost subregions.
	sum := 0.0
	for j := 0; j < tb.NumSubregions()-1; j++ {
		sum += tb.S(0, j)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("mass below f_min = %g, want 1", sum)
	}
}

func TestMarchCDFMatchesHistogramCDF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		edges := make([]float64, n+1)
		x := rng.Float64() * 5
		for i := range edges {
			edges[i] = x
			x += 0.05 + rng.Float64()*3
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}
		weights[0] += 0.1
		h, err := pdf.NewHistogram(edges, weights)
		if err != nil {
			return false
		}
		// Probe points: strictly ascending mixture of edges and interiors.
		var ends []float64
		p := edges[0] - 1
		for p < edges[n]+1 {
			ends = append(ends, p)
			p += 0.01 + rng.Float64()
		}
		out := make([]float64, len(ends))
		marchCDF(h, ends, out)
		for i, e := range ends {
			if math.Abs(out[i]-h.CDF(e)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTableInvariants checks the analytic invariants on randomized candidate
// sets generated through the real distance-pdf pipeline.
func TestTableInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nObj := 2 + rng.Intn(10)
		q := rng.Float64() * 100
		var cands []Candidate
		fMin := math.Inf(1)
		type span struct{ n, f float64 }
		var spans []span
		for i := 0; i < nObj; i++ {
			lo := q - 20 + rng.Float64()*40
			u := pdf.MustUniform(lo, lo+0.5+rng.Float64()*15)
			d, err := dist.FromPDF(u, q)
			if err != nil {
				return false
			}
			sup := d.Support()
			spans = append(spans, span{sup.Lo, sup.Hi})
			fMin = math.Min(fMin, sup.Hi)
			cands = append(cands, Candidate{ID: i, Dist: d})
		}
		// Emulate filtering: drop objects with near point beyond f_min.
		kept := cands[:0]
		for i, c := range cands {
			if spans[i].n <= fMin {
				kept = append(kept, c)
			}
		}
		tb, err := Build(kept)
		if err != nil {
			return false
		}
		m := tb.NumSubregions()
		for i := 0; i < tb.NumCandidates(); i++ {
			sum := 0.0
			prev := -1.0
			for j := 0; j <= m; j++ {
				dv := tb.D(i, j)
				if dv < prev-1e-12 || dv < -1e-12 || dv > 1+1e-12 {
					return false // cdf must be monotone within [0,1]
				}
				prev = dv
				// Excl * own factor == Y at every end-point.
				if math.Abs(tb.Excl(i, j)*(1-dv)-tb.Y(j)) > 1e-9 {
					return false
				}
			}
			for j := 0; j < m; j++ {
				sum += tb.S(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false // subregion masses partition the distribution
			}
		}
		// End-points are strictly ascending and the last two bracket
		// [f_min, f_max].
		ends := tb.Endpoints()
		for j := 1; j < len(ends); j++ {
			if ends[j] <= ends[j-1] {
				return false
			}
		}
		// When f_min == f_max (single effective candidate) the rightmost
		// subregion is a synthetic sliver just above f_min.
		return ends[m-1] == tb.Cut() && ends[m] >= tb.FMax()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEndpointsIncludePDFBreaks(t *testing.T) {
	// A histogram object with a pdf change at 1.5 (below f_min) must
	// generate an end-point there (the paper's e4).
	tb, err := Build([]Candidate{
		{ID: 1, Dist: pdf.MustHistogram([]float64{0, 1.5, 4}, []float64{1, 5})},
		{ID: 2, Dist: pdf.MustHistogram([]float64{0.5, 3}, []float64{1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range tb.Endpoints() {
		if e == 1.5 {
			found = true
		}
	}
	if !found {
		t.Errorf("pdf breakpoint 1.5 missing from end-points %v", tb.Endpoints())
	}
	// Breakpoints at or above f_min (here 3) must NOT appear except f_min
	// and f_max themselves.
	for _, e := range tb.Endpoints() {
		if e > tb.Cut() && e < tb.FMax() {
			t.Errorf("end-point %g inside the rightmost subregion", e)
		}
	}
}

// TestRebuildReuseMatchesFresh: a table dirtied by a previous build and then
// Rebuilt over a new candidate set, in any order, must be indistinguishable
// from a freshly built table — every query recycles tables through core's
// scratch pool and relies on this, and the incremental path assembles its candidates in
// filter order rather than the order a fresh query derives them in.
func TestRebuildReuseMatchesFresh(t *testing.T) {
	gen := func(seed int64, n int) []Candidate {
		rng := rand.New(rand.NewSource(seed))
		q := 50.0
		var cands []Candidate
		fMin := math.Inf(1)
		for i := 0; i < n; i++ {
			lo := q - 15 + rng.Float64()*30
			d, err := dist.FromPDF(pdf.MustUniform(lo, lo+1+rng.Float64()*10), q)
			if err != nil {
				t.Fatal(err)
			}
			fMin = math.Min(fMin, d.Support().Hi)
			cands = append(cands, Candidate{ID: i, Dist: d})
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.Dist.Support().Lo <= fMin {
				kept = append(kept, c)
			}
		}
		return kept
	}

	// Dirty a reused table with a larger set, then Rebuild over each target
	// set and compare against a fresh Build, field by field.
	reused := new(Table)
	if err := reused.Rebuild(gen(99, 24), 1); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		cands := gen(seed, 3+int(seed)*2)
		fresh, err := Build(cands)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Rebuild(cands, 1); err != nil {
			t.Fatal(err)
		}
		if got, want := reused.NumCandidates(), fresh.NumCandidates(); got != want {
			t.Fatalf("seed %d: %d candidates, want %d", seed, got, want)
		}
		if got, want := reused.NumSubregions(), fresh.NumSubregions(); got != want {
			t.Fatalf("seed %d: %d subregions, want %d", seed, got, want)
		}
		if reused.Cut() != fresh.Cut() || reused.FMax() != fresh.FMax() {
			t.Fatalf("seed %d: fmin/fmax differ", seed)
		}
		for j, e := range fresh.Endpoints() {
			if reused.Endpoints()[j] != e {
				t.Fatalf("seed %d: endpoint %d differs", seed, j)
			}
		}
		nE := len(fresh.Endpoints())
		for i := 0; i < fresh.NumCandidates(); i++ {
			if reused.IDs()[i] != fresh.IDs()[i] {
				t.Fatalf("seed %d: candidate order differs at %d", seed, i)
			}
			for j := 0; j < nE; j++ {
				if reused.D(i, j) != fresh.D(i, j) || reused.Excl(i, j) != fresh.Excl(i, j) {
					t.Fatalf("seed %d: D/Excl(%d,%d) differ", seed, i, j)
				}
			}
			for j := 0; j < fresh.NumSubregions(); j++ {
				if reused.S(i, j) != fresh.S(i, j) {
					t.Fatalf("seed %d: S(%d,%d) differs", seed, i, j)
				}
			}
		}
		for j := 0; j < nE; j++ {
			if reused.Y(j) != fresh.Y(j) {
				t.Fatalf("seed %d: Y(%d) differs", seed, j)
			}
		}
		for j := 0; j < fresh.NumSubregions(); j++ {
			if reused.Count(j) != fresh.Count(j) {
				t.Fatalf("seed %d: Count(%d) differs", seed, j)
			}
		}

		shuffled := append([]Candidate(nil), cands...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if err := reused.Rebuild(shuffled, 1); err != nil {
			t.Fatal(err)
		}
		if !tablesEqual(reused, fresh) {
			t.Fatalf("seed %d: Rebuild of the shuffled set differs from fresh Build", seed)
		}
	}
}

// TestRebuildCutsAtK: a table built for k cuts at the k-th smallest far
// point (the largest when k exceeds |C|), rejects a candidate whose near
// point lies beyond that cut.
func TestRebuildCutsAtK(t *testing.T) {
	u := func(id int, lo, hi float64) Candidate {
		return Candidate{ID: id, Dist: pdf.MustHistogram([]float64{lo, hi}, []float64{1})}
	}
	cands := []Candidate{u(1, 0, 4), u(2, 1, 3), u(3, 2, 6), u(4, 3.5, 5)}
	var tb Table
	for k, want := range map[int]float64{2: 4, 3: 5, 4: 6, 9: 6} {
		if err := tb.Rebuild(cands, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if tb.K() != k || tb.Cut() != want {
			t.Fatalf("k=%d: table k %d, cut %g, want %g", k, tb.K(), tb.Cut(), want)
		}
	}
	if err := tb.Rebuild(cands, 1); err == nil {
		t.Fatal("k=1 accepted a candidate whose near point 3.5 lies beyond f_min 3")
	}
	if err := tb.Rebuild(cands, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
