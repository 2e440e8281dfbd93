// Benchmarks regenerating the measured quantity behind every table and
// figure of the paper's evaluation (§V). Each BenchmarkFigureNN times the
// per-query work of the corresponding experiment at its default parameters;
// the full swept series (all thresholds, tolerances and dataset sizes, with
// averaged rows exactly as the paper plots them) is produced by
// `go run ./cmd/cpnn-bench` and recorded in EXPERIMENTS.md.
//
// BenchmarkVerifier* covers Table III (per-verifier complexity), and the
// Ablation* benches measure three of the implementation's design choices:
// the verifier order (Fig. 5's cheap-first chain), the quadrature size, and
// the verifier prior of incremental refinement (§IV-D).
package pnn_test

import (
	"sync"
	"testing"

	pnn "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/refine"
	"repro/internal/subregion"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// benchEnv lazily builds the Long-Beach-like engine and workload shared by
// the figure benchmarks. Sizes are trimmed (vs the paper's 100-query
// averages) so `go test -bench=.` completes in minutes on one core.
type benchEnv struct {
	once    sync.Once
	eng     *core.Engine
	gaussE  *core.Engine
	queries []float64
	err     error
}

var env benchEnv

func setup(b *testing.B) *benchEnv {
	b.Helper()
	env.once.Do(func() {
		opt := uncertain.LongBeachOptions(1)
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			env.err = err
			return
		}
		env.eng, err = core.NewEngine(ds)
		if err != nil {
			env.err = err
			return
		}
		gds, err := uncertain.GenerateGaussianAnalytic(opt)
		if err != nil {
			env.err = err
			return
		}
		env.gaussE, err = core.NewEngine(gds)
		if err != nil {
			env.err = err
			return
		}
		env.queries = uncertain.QueryWorkload(64, opt.Domain, 2)
	})
	if env.err != nil {
		b.Fatal(env.err)
	}
	return &env
}

func (e *benchEnv) query(i int) float64 { return e.queries[i%len(e.queries)] }

// BenchmarkFigure9Filtering times the filtering phase alone (the fast side
// of paper Fig. 9).
func BenchmarkFigure9Filtering(b *testing.B) {
	e := setup(b)
	sizes := map[string]int{"n=5000": 5000, "n=20000": 20000, "n=53144": 0}
	for name, n := range sizes {
		b.Run(name, func(b *testing.B) {
			eng := e.eng
			if n > 0 {
				opt := uncertain.LongBeachOptions(1)
				opt.N = n
				ds, err := uncertain.GenerateUniform(opt)
				if err != nil {
					b.Fatal(err)
				}
				eng, err = core.NewEngine(ds)
				if err != nil {
					b.Fatal(err)
				}
			}
			c := verify.Constraint{P: 0.99, Delta: 0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The VR strategy at a high threshold is dominated by
				// filter+init; subtracting nothing, this still isolates the
				// cheap path the paper contrasts Basic against.
				if _, err := eng.CPNN(e.query(i), c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9Basic times the Basic strategy (the slow side of paper
// Fig. 9) at two dataset sizes bracketing the paper's crossover.
func BenchmarkFigure9Basic(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		opt := uncertain.LongBeachOptions(1)
		opt.N = n
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		qs := uncertain.QueryWorkload(16, opt.Domain, 2)
		b.Run(map[int]string{2000: "n=2000", 20000: "n=20000"}[n], func(b *testing.B) {
			c := verify.Constraint{P: 0.3, Delta: 0.01}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CPNN(qs[i%len(qs)], c, core.Options{Strategy: core.Basic}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10 times one C-PNN per strategy at the paper's default
// P = 0.3 (paper Fig. 10's headline comparison point).
func BenchmarkFigure10(b *testing.B) {
	e := setup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, strat := range []core.Strategy{core.Basic, core.Refine, core.VR} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.CPNN(e.query(i), c, core.Options{Strategy: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10HighThreshold repeats the comparison at P = 0.7, where
// the paper reports VR 40x ahead of Refine.
func BenchmarkFigure10HighThreshold(b *testing.B) {
	e := setup(b)
	c := verify.Constraint{P: 0.7, Delta: 0.01}
	for _, strat := range []core.Strategy{core.Refine, core.VR} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.CPNN(e.query(i), c, core.Options{Strategy: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure11Phases reports the VR phase split via ReportMetric
// (paper Fig. 11): ns spent filtering / verifying / refining per query.
func BenchmarkFigure11Phases(b *testing.B) {
	e := setup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	var filter, vrf, ref int64
	for i := 0; i < b.N; i++ {
		res, err := e.eng.CPNN(e.query(i), c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		filter += int64(res.Stats.FilterTime)
		vrf += int64(res.Stats.InitTime + res.Stats.VerifyTime)
		ref += int64(res.Stats.RefineTime)
	}
	b.ReportMetric(float64(filter)/float64(b.N), "filter-ns/op")
	b.ReportMetric(float64(vrf)/float64(b.N), "verify-ns/op")
	b.ReportMetric(float64(ref)/float64(b.N), "refine-ns/op")
}

// BenchmarkFigure12Verifiers times each verifier pass in isolation on a
// prepared subregion table (paper Fig. 12 measures their effect; Table III
// their cost: RS O(|C|), L-SR and U-SR O(|C|·M)).
func BenchmarkFigure12Verifiers(b *testing.B) {
	e := setup(b)
	table := buildTable(b, e.eng, e.queries[0])
	verifiers := []verify.Verifier{verify.RS{}, verify.LSR{}, verify.USR{}}
	for _, v := range verifiers {
		b.Run(v.Name(), func(b *testing.B) {
			n := table.NumCandidates()
			bounds := make([]verify.Bounds, n)
			status := make([]verify.Status, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range bounds {
					bounds[j] = verify.Bounds{L: 0, U: 1}
					status[j] = verify.Unknown
				}
				v.Apply(table, bounds, status)
			}
		})
	}
}

// BenchmarkFigure13Tolerance times full VR queries at the extremes of the
// paper's tolerance sweep.
func BenchmarkFigure13Tolerance(b *testing.B) {
	e := setup(b)
	for _, d := range []float64{0, 0.2} {
		name := "delta=0"
		if d > 0 {
			name = "delta=0.2"
		}
		b.Run(name, func(b *testing.B) {
			c := verify.Constraint{P: 0.3, Delta: d}
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.CPNN(e.query(i), c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure14Gaussian times the strategies on Gaussian uncertainty
// (paper Fig. 14, log scale — Basic collapses, VR stays interactive).
func BenchmarkFigure14Gaussian(b *testing.B) {
	e := setup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	cases := []struct {
		name string
		opt  core.Options
	}{
		{"Basic", core.Options{Strategy: core.Basic, BasicSteps: 20000, Bins: 300}},
		{"Refine", core.Options{Strategy: core.Refine, Bins: 300}},
		{"VR", core.Options{Strategy: core.VR, Bins: 300}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.gaussE.CPNN(e.query(i), c, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifierScaling exercises Table III's complexity claims: verifier
// cost versus candidate-set size.
func BenchmarkVerifierScaling(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
			N: n * 40, Domain: float64(n * 40), MeanLen: 12, MinLen: 1, MaxLen: 60, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		table := buildTable(b, eng, float64(n*20))
		b.Run(map[int]string{16: "C~16", 64: "C~64", 256: "C~256"}[n], func(b *testing.B) {
			nC := table.NumCandidates()
			b.ReportMetric(float64(nC), "candidates")
			b.ReportMetric(float64(table.NumSubregions()), "subregions")
			bounds := make([]verify.Bounds, nC)
			status := make([]verify.Status, nC)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range bounds {
					bounds[j] = verify.Bounds{L: 0, U: 1}
					status[j] = verify.Unknown
				}
				verify.RS{}.Apply(table, bounds, status)
				verify.LSR{}.Apply(table, bounds, status)
				verify.USR{}.Apply(table, bounds, status)
			}
		})
	}
}

// BenchmarkAblationVerifierOrder compares the paper's cheap-first chain with
// an inverted one — the ordering rationale of Fig. 5.
func BenchmarkAblationVerifierOrder(b *testing.B) {
	e := setup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	orders := map[string][]verify.Verifier{
		"RS-LSR-USR": {verify.RS{}, verify.LSR{}, verify.USR{}},
		"USR-LSR-RS": {verify.USR{}, verify.LSR{}, verify.RS{}},
		"USR-only":   {verify.USR{}},
	}
	for name, chain := range orders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.CPNN(e.query(i), c, core.Options{Verifiers: chain}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRefinementPrior isolates §IV-D's claim that verifier
// knowledge accelerates refinement: incremental refinement with the verifier
// prior versus the trivial prior on the same unknown object.
func BenchmarkAblationRefinementPrior(b *testing.B) {
	e := setup(b)
	table := buildTable(b, e.eng, e.queries[0])
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	// Pick the candidate with the widest verifier bound: the hardest one.
	vres, err := verify.Run(table, c, verify.DefaultChain())
	if err != nil {
		b.Fatal(err)
	}
	target, widest := 0, -1.0
	for i, bd := range vres.Bounds {
		if w := bd.Width(); w > widest {
			widest, target = w, i
		}
	}
	priors := map[string]refine.Prior{
		"verifier-prior": refine.VerifierPrior{},
		"trivial-prior":  refine.TrivialPrior{},
	}
	for name, prior := range priors {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refine.Incremental(table, target, c, verify.Bounds{L: 0, U: 1}, prior); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQuadrature sweeps the Gauss–Legendre rule size for exact
// subregion integration (gl=auto picks the exact rule size; fewer nodes trade
// accuracy for speed).
func BenchmarkAblationQuadrature(b *testing.B) {
	e := setup(b)
	table := buildTable(b, e.eng, e.queries[0])
	for _, nodes := range []int{4, 16, 0} {
		name := map[int]string{4: "gl=4", 16: "gl=16", 0: "gl=auto"}[nodes]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refine.Exact(table, i%table.NumCandidates(), nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubregionBuild times table construction (the initialization the
// paper folds into verification).
func BenchmarkSubregionBuild(b *testing.B) {
	e := setup(b)
	cands := distanceCandidates(b, e.eng, e.queries[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subregion.Build(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI exercises the facade end-to-end, the path users take.
func BenchmarkPublicAPI(b *testing.B) {
	ds, err := pnn.GenerateUniform(pnn.GenOptions{
		N: 5000, Domain: 5000, MeanLen: 12, MinLen: 1, MaxLen: 60, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pnn.New(ds)
	if err != nil {
		b.Fatal(err)
	}
	qs := pnn.QueryWorkload(32, 5000, 3)
	c := pnn.Constraint{P: 0.3, Delta: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CPNN(qs[i%len(qs)], c, pnn.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// buildTable assembles the subregion table for one query of an engine's
// dataset, bypassing the engine so benchmarks can isolate components.
func buildTable(b *testing.B, eng *core.Engine, q float64) *subregion.Table {
	b.Helper()
	table, err := subregion.Build(distanceCandidates(b, eng, q))
	if err != nil {
		b.Fatal(err)
	}
	return table
}

func distanceCandidates(b *testing.B, eng *core.Engine, q float64) []subregion.Candidate {
	b.Helper()
	// Reconstruct the candidate set via the public pipeline pieces.
	ds := eng.Dataset()
	probsDs := ds.Objects()
	fMin := -1.0
	for _, o := range probsDs {
		f := o.Region().MaxDist(q)
		if fMin < 0 || f < fMin {
			fMin = f
		}
	}
	var cands []subregion.Candidate
	for _, o := range probsDs {
		if o.Region().MinDist(q) > fMin {
			continue
		}
		d, err := dist.FromPDF(o.PDF, q)
		if err != nil {
			b.Fatal(err)
		}
		cands = append(cands, subregion.Candidate{ID: o.ID, Dist: d})
	}
	return cands
}
