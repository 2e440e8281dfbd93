package verify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/subregion"
)

// handTable rebuilds the worked example of the subregion tests:
// X1 hist{0,2,6; .4,.6}, X2 uniform[1,5], X3 uniform[3,8].
// Hand-derived verifier values:
//
//	RS uppers:    [0.85, 1, 0.4]
//	L-SR lowers:  [0.40625, 0.25, 0.03]
//	U-SR uppers:  [0.54375, 0.44125, 0.045]
func handTable(t *testing.T) *subregion.Table {
	t.Helper()
	tb, err := subregion.Build([]subregion.Candidate{
		{ID: 10, Dist: pdf.MustHistogram([]float64{0, 2, 6}, []float64{0.4, 0.6})},
		{ID: 20, Dist: pdf.MustHistogram([]float64{1, 5}, []float64{1})},
		{ID: 30, Dist: pdf.MustHistogram([]float64{3, 8}, []float64{1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func freshState(n int) ([]Bounds, []Status) {
	b := make([]Bounds, n)
	for i := range b {
		b[i] = Bounds{L: 0, U: 1}
	}
	return b, make([]Status, n)
}

func TestClassifyPaperFigure4(t *testing.T) {
	// Paper Fig. 4 with P = 0.8, Delta = 0.15.
	c := Constraint{P: 0.8, Delta: 0.15}
	cases := []struct {
		name string
		b    Bounds
		want Status
	}{
		{"a: l >= P", Bounds{0.8, 0.96}, Satisfy},
		{"b: u >= P and width <= delta", Bounds{0.75, 0.85}, Satisfy},
		{"c: u < P", Bounds{0.7, 0.78}, Fail},
		{"d: u >= P but wide and l < P", Bounds{0.6, 0.85}, Unknown},
	}
	for _, tc := range cases {
		if got := Classify(tc.b, c); got != tc.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", tc.name, tc.b, got, tc.want)
		}
	}
	// The paper's follow-up: once pj.l is raised to 0.81, case (d) becomes
	// an answer.
	if got := Classify(Bounds{0.81, 0.85}, c); got != Satisfy {
		t.Errorf("tightened case d = %v, want satisfy", got)
	}
}

func TestClassifyEdges(t *testing.T) {
	// Exact-equality boundaries.
	c := Constraint{P: 0.3, Delta: 0}
	if got := Classify(Bounds{0.3, 0.3}, c); got != Satisfy {
		t.Errorf("point bound at P = %v", got)
	}
	if got := Classify(Bounds{0.29999, 0.29999}, c); got != Fail {
		t.Errorf("point bound below P = %v", got)
	}
	if got := Classify(Bounds{0, 1}, c); got != Unknown {
		t.Errorf("vacuous bound = %v", got)
	}
	// Delta covering the whole bound accepts immediately.
	if got := Classify(Bounds{0, 1}, Constraint{P: 0.3, Delta: 1}); got != Satisfy {
		t.Errorf("delta=1 = %v", got)
	}
}

func TestConstraintValidate(t *testing.T) {
	good := []Constraint{{0.1, 0}, {1, 1}, {0.5, 0.01}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []Constraint{{0, 0}, {-0.1, 0}, {1.01, 0}, {0.5, -0.01}, {0.5, 1.01}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestBoundsTighten(t *testing.T) {
	b := Bounds{0.2, 0.9}
	got := b.Tighten(Bounds{0.3, 0.95})
	if got != (Bounds{0.3, 0.9}) {
		t.Errorf("Tighten = %v", got)
	}
	if w := got.Width(); math.Abs(w-0.6) > 1e-15 {
		t.Errorf("Width = %g", w)
	}
}

func TestRSHandValues(t *testing.T) {
	tb := handTable(t)
	b, st := freshState(3)
	RS{}.Apply(tb, b, st)
	want := []float64{0.85, 1, 0.4}
	for i := range want {
		if math.Abs(b[i].U-want[i]) > 1e-12 {
			t.Errorf("RS upper[%d] = %g, want %g", i, b[i].U, want[i])
		}
		if b[i].L != 0 {
			t.Errorf("RS touched lower bound of %d", i)
		}
	}
}

func TestLSRHandValues(t *testing.T) {
	tb := handTable(t)
	b, st := freshState(3)
	LSR{}.Apply(tb, b, st)
	want := []float64{0.40625, 0.25, 0.03}
	for i := range want {
		if math.Abs(b[i].L-want[i]) > 1e-12 {
			t.Errorf("L-SR lower[%d] = %g, want %g", i, b[i].L, want[i])
		}
		if b[i].U != 1 {
			t.Errorf("L-SR touched upper bound of %d", i)
		}
	}
}

func TestUSRHandValues(t *testing.T) {
	tb := handTable(t)
	b, st := freshState(3)
	USR{}.Apply(tb, b, st)
	want := []float64{0.54375, 0.44125, 0.045}
	for i := range want {
		if math.Abs(b[i].U-want[i]) > 1e-12 {
			t.Errorf("U-SR upper[%d] = %g, want %g", i, b[i].U, want[i])
		}
	}
}

func TestUSRNeverLooserThanRS(t *testing.T) {
	// U-SR's bound Σ s_ij q_ij.u <= Σ s_ij = 1 − s_iM, the RS bound, so
	// running U-SR after RS always keeps or tightens the bound.
	tb := handTable(t)
	bRS, st1 := freshState(3)
	RS{}.Apply(tb, bRS, st1)
	bUSR, st2 := freshState(3)
	USR{}.Apply(tb, bUSR, st2)
	for i := range bRS {
		if bUSR[i].U > bRS[i].U+1e-12 {
			t.Errorf("candidate %d: U-SR %g looser than RS %g", i, bUSR[i].U, bRS[i].U)
		}
	}
}

func TestVerifiersSkipDecidedCandidates(t *testing.T) {
	tb := handTable(t)
	b, st := freshState(3)
	st[0] = Fail
	b[0] = Bounds{0, 1}
	RS{}.Apply(tb, b, st)
	LSR{}.Apply(tb, b, st)
	USR{}.Apply(tb, b, st)
	if b[0] != (Bounds{0, 1}) {
		t.Errorf("decided candidate's bounds were modified: %v", b[0])
	}
}

func TestRunChainHandExample(t *testing.T) {
	tb := handTable(t)
	// P=0.5, Delta=0.1: X3 fails at RS (u=0.4 < 0.5). X1 ends [0.40625,
	// 0.54375] — width 0.1375 > 0.1 and l < P: unknown. X2 ends [0.25,
	// 0.44125]: u < 0.5 after U-SR -> fail.
	res, err := Run(tb, Constraint{P: 0.5, Delta: 0.1}, DefaultChain())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[2] != Fail {
		t.Errorf("X3 = %v, want fail", res.Status[2])
	}
	if res.Status[1] != Fail {
		t.Errorf("X2 = %v, want fail (upper %g)", res.Status[1], res.Bounds[1].U)
	}
	if res.Status[0] != Unknown {
		t.Errorf("X1 = %v, want unknown", res.Status[0])
	}
	if len(res.Applied) != 3 {
		t.Errorf("Applied = %v", res.Applied)
	}
	// UnknownAfter is monotone non-increasing.
	for k := 1; k < len(res.UnknownAfter); k++ {
		if res.UnknownAfter[k] > res.UnknownAfter[k-1] {
			t.Errorf("UnknownAfter not monotone: %v", res.UnknownAfter)
		}
	}
}

func TestRunEarlyExit(t *testing.T) {
	tb := handTable(t)
	// P=0.95: RS alone pushes every upper bound below 0.95 except X2's
	// (u=1)... X2's RS upper is 1, so RS can't fail it. U-SR will. With
	// delta=1 every candidate with u >= P satisfies immediately; choose
	// delta=0 to exercise fail-only classification.
	res, err := Run(tb, Constraint{P: 0.95, Delta: 0}, DefaultChain())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Status {
		if st != Fail {
			t.Errorf("candidate %d = %v, want fail", i, st)
		}
	}
	// The chain should have stopped before or at U-SR once nothing remained
	// unknown; RS leaves X2 unknown so at least two verifiers ran.
	if len(res.Applied) < 2 {
		t.Errorf("Applied = %v", res.Applied)
	}
}

func TestRunInvalidConstraint(t *testing.T) {
	tb := handTable(t)
	if _, err := Run(tb, Constraint{P: 0, Delta: 0}, DefaultChain()); err == nil {
		t.Error("P=0 accepted")
	}
}

func TestStatusString(t *testing.T) {
	if Unknown.String() != "unknown" || Satisfy.String() != "satisfy" || Fail.String() != "fail" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("out-of-range status has empty string")
	}
}

// TestBoundsSandwichProperty is the central soundness property: for random
// candidate sets, the true qualification probability (estimated by
// Monte-Carlo) lies within every verifier's bounds.
func TestBoundsSandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nObj := 2 + rng.Intn(8)
		q := rng.Float64() * 50
		var cands []subregion.Candidate
		fMin := math.Inf(1)
		var nears []float64
		for i := 0; i < nObj; i++ {
			lo := q - 15 + rng.Float64()*30
			width := 0.5 + rng.Float64()*10
			var p pdf.PDF
			if rng.Intn(2) == 0 {
				p = pdf.MustUniform(lo, lo+width)
			} else {
				edges := []float64{lo, lo + width/3, lo + width}
				p = pdf.MustHistogram(edges, []float64{0.3 + rng.Float64(), 0.3 + rng.Float64()})
			}
			d, err := dist.FromPDF(p, q)
			if err != nil {
				return false
			}
			sup := d.Support()
			nears = append(nears, sup.Lo)
			fMin = math.Min(fMin, sup.Hi)
			cands = append(cands, subregion.Candidate{ID: i, Dist: d})
		}
		kept := cands[:0]
		for i, c := range cands {
			if nears[i] <= fMin {
				kept = append(kept, c)
			}
		}
		tb, err := subregion.Build(kept)
		if err != nil {
			return false
		}
		n := tb.NumCandidates()
		b, st := freshState(n)
		RS{}.Apply(tb, b, st)
		LSR{}.Apply(tb, b, st)
		USR{}.Apply(tb, b, st)

		// Monte-Carlo ground truth.
		const samples = 4000
		counts := make([]float64, n)
		for s := 0; s < samples; s++ {
			best, bi := math.Inf(1), -1
			for k := 0; k < n; k++ {
				r := tb.Dist(k).Sample(rng)
				if r < best {
					best, bi = r, k
				}
			}
			counts[bi]++
		}
		for i := 0; i < n; i++ {
			p := counts[i] / samples
			// 4 sigma slack on the MC estimate, with an absolute floor so
			// tiny probabilities that draw zero hits don't false-positive.
			slack := 4*math.Sqrt(p*(1-p)/samples) + 2e-3
			if p < b[i].L-slack-1e-9 || p > b[i].U+slack+1e-9 {
				return false
			}
			if b[i].L > b[i].U+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
