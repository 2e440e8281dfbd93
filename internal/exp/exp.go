// Package exp is the benchmark harness that regenerates every figure of the
// paper's evaluation section (§V). Each FigureN function runs the
// corresponding experiment and returns a Table whose rows mirror the series
// the paper plots:
//
//	Figure 9  — Basic vs Filtering time across dataset sizes
//	Figure 10 — query time vs threshold P for Basic / Refine / VR
//	Figure 11 — VR phase breakdown (filter / verify / refine) vs P
//	Figure 12 — fraction of unknown objects after RS / L-SR / U-SR vs P
//	Figure 13 — fraction of queries finished after verification vs Δ
//	Figure 14 — Gaussian-pdf query time vs P for Basic / Refine / VR
//
// Absolute times differ from the paper's 2008 Java/1.83GHz testbed; the
// comparisons of interest are the orderings, ratios and crossovers, which
// EXPERIMENTS.md tracks against the paper's reported values.
package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Config scales an experiment run. The zero value is completed by
// withDefaults to a paper-comparable configuration.
type Config struct {
	// Queries is the number of query points averaged per data point (the
	// paper uses 100).
	Queries int
	// Seed drives dataset generation and query placement.
	Seed int64
	// DatasetN overrides the object count; 0 means the Long-Beach 53,144.
	DatasetN int
	// BasicSteps caps the Simpson resolution of the Basic baseline; 0 means
	// an automatic choice per experiment.
	BasicSteps int
	// GaussBars is the histogram resolution for Gaussian pdfs; 0 means 300
	// (paper §V.5).
	GaussBars int
	// Tolerance is the Δ every figure but Figure 13 (which sweeps Δ) runs
	// at, exactly as given: 0 is Δ = 0. The paper uses 0.01.
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 100
	}
	if c.GaussBars == 0 {
		c.GaussBars = 300
	}
	return c
}

// mean accumulates the arithmetic mean the figures plot per data point.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) {
	m.sum += v
	m.n++
}

// addDuration adds d in milliseconds.
func (m *mean) addDuration(d time.Duration) {
	m.add(float64(d) / float64(time.Millisecond))
}

// value returns the mean, or 0 when nothing was added.
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Table is a printable experiment result: one labeled column per series.
type Table struct {
	// Title names the experiment.
	Title string
	// Columns holds the column headers; Columns[0] labels the x axis.
	Columns []string
	// Rows holds one row per x value.
	Rows [][]float64
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for _, v := range row {
			fmt.Fprintf(w, "%14.4f", v)
		}
		fmt.Fprintln(w)
	}
}

// Cell returns the value at (row, column label) for tests and report
// generation.
func (t *Table) Cell(row int, column string) (float64, error) {
	for ci, c := range t.Columns {
		if c == column {
			if row < 0 || row >= len(t.Rows) {
				return 0, fmt.Errorf("exp: row %d outside table %q", row, t.Title)
			}
			return t.Rows[row][ci], nil
		}
	}
	return 0, fmt.Errorf("exp: no column %q in table %q", column, t.Title)
}

// longBeach creates the (possibly size-overridden) Long-Beach-like dataset.
func longBeach(cfg Config) (*uncertain.Dataset, uncertain.GenOptions, error) {
	opt := uncertain.LongBeachOptions(cfg.Seed)
	if cfg.DatasetN > 0 {
		opt.N = cfg.DatasetN
	}
	ds, err := uncertain.GenerateUniform(opt)
	return ds, opt, err
}

// Figure9 compares the cost of the filtering phase against the Basic
// strategy across dataset sizes (paper Fig. 9: Basic dominates beyond a few
// thousand objects).
func Figure9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{1000, 2000, 5000, 10000, 20000}
	t := &Table{
		Title:   "Figure 9: Basic vs Filtering time (ms/query) across dataset size",
		Columns: []string{"size", "filter_ms", "basic_ms"},
	}
	for _, n := range sizes {
		opt := uncertain.LongBeachOptions(cfg.Seed)
		opt.N = n
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(ds)
		if err != nil {
			return nil, err
		}
		var filterMS, basicMS mean
		for _, q := range uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1) {
			res, err := eng.CPNN(q, verify.Constraint{P: 0.3, Delta: cfg.Tolerance},
				core.Options{Strategy: core.Basic, BasicSteps: cfg.BasicSteps})
			if err != nil {
				return nil, err
			}
			filterMS.addDuration(res.Stats.FilterTime)
			// Basic's cost is everything after filtering.
			basicMS.addDuration(res.Stats.InitTime + res.Stats.RefineTime)
		}
		t.Rows = append(t.Rows, []float64{float64(n), filterMS.value(), basicMS.value()})
	}
	return t, nil
}

// Figure10 measures total query time against the threshold P for the three
// strategies (paper Fig. 10: VR ≈ 16% of Basic at P=0.3; 5× faster than
// Refine at P=0.3, 40× at P=0.7).
func Figure10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ds, opt, err := longBeach(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	ps := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	t := &Table{
		Title:   "Figure 10: query time (ms) vs threshold P",
		Columns: []string{"P", "basic_ms", "refine_ms", "vr_ms"},
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	for _, p := range ps {
		c := verify.Constraint{P: p, Delta: cfg.Tolerance}
		row := []float64{p}
		for _, strat := range []core.Strategy{core.Basic, core.Refine, core.VR} {
			var ms mean
			for _, q := range queries {
				res, err := eng.CPNN(q, c, core.Options{Strategy: strat, BasicSteps: cfg.BasicSteps})
				if err != nil {
					return nil, err
				}
				ms.addDuration(res.Stats.Total())
			}
			row = append(row, ms.value())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure11 decomposes VR query time into filtering, verification (including
// initialization, as the paper does) and refinement (paper Fig. 11:
// filtering flat, verification negligible, refinement vanishing past
// P = 0.3).
func Figure11(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ds, opt, err := longBeach(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1}
	t := &Table{
		Title:   "Figure 11: VR phase breakdown (ms) vs threshold P",
		Columns: []string{"P", "filter_ms", "verify_ms", "refine_ms"},
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	for _, p := range ps {
		c := verify.Constraint{P: p, Delta: cfg.Tolerance}
		var fMS, vMS, rMS mean
		for _, q := range queries {
			res, err := eng.CPNN(q, c, core.Options{Strategy: core.VR})
			if err != nil {
				return nil, err
			}
			fMS.addDuration(res.Stats.FilterTime)
			vMS.addDuration(res.Stats.InitTime + res.Stats.VerifyTime)
			rMS.addDuration(res.Stats.RefineTime)
		}
		t.Rows = append(t.Rows, []float64{p, fMS.value(), vMS.value(), rMS.value()})
	}
	return t, nil
}

// Figure12 reports the fraction of candidate objects still unknown after
// each verifier in the chain, versus P (paper Fig. 12: RS leaves ~75% at
// P=0.1; U-SR leaves ~15%).
func Figure12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ds, opt, err := longBeach(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	ps := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	t := &Table{
		Title:   "Figure 12: fraction unknown after RS / L-SR / U-SR vs threshold P",
		Columns: []string{"P", "after_RS", "after_LSR", "after_USR"},
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	for _, p := range ps {
		c := verify.Constraint{P: p, Delta: cfg.Tolerance}
		var frac [3]mean
		for _, q := range queries {
			res, err := eng.CPNN(q, c, core.Options{Strategy: core.VR})
			if err != nil {
				return nil, err
			}
			if res.Stats.Candidates == 0 {
				continue
			}
			total := float64(res.Stats.Candidates)
			// Early exit leaves shorter traces; unknown stays at the last
			// recorded value (necessarily zero) for skipped verifiers.
			last := 0.0
			for v := 0; v < 3; v++ {
				if v < len(res.Stats.UnknownAfter) {
					last = float64(res.Stats.UnknownAfter[v])
				}
				frac[v].add(last / total)
			}
		}
		t.Rows = append(t.Rows, []float64{p, frac[0].value(), frac[1].value(), frac[2].value()})
	}
	return t, nil
}

// Figure13 reports the fraction of queries that finish at verification
// (no refinement needed) as the tolerance Δ grows (paper Fig. 13: ~10 %
// more finished queries at Δ=0.16 than at Δ=0).
//
// The threshold is P = 0.15 rather than the 0.3 default: on the synthetic
// workload the verifier bound widths of marginal objects at P = 0.3 sit just
// above the paper's swept Δ range (≥ 0.2), which would flatten the curve; at
// P = 0.15 the widths straddle the sweep and the paper's effect size
// (+10 % finished queries at Δ = 0.16) is reproduced. EXPERIMENTS.md
// discusses the discrepancy.
func Figure13(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ds, opt, err := longBeach(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	deltas := []float64{0, 0.04, 0.08, 0.12, 0.16, 0.2}
	t := &Table{
		Title:   "Figure 13: fraction of queries finished after verification vs tolerance",
		Columns: []string{"delta", "finished_frac"},
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	for _, d := range deltas {
		finished := 0
		for _, q := range queries {
			res, err := eng.CPNN(q, verify.Constraint{P: 0.15, Delta: d},
				core.Options{Strategy: core.VR})
			if err != nil {
				return nil, err
			}
			if res.Stats.RefinedObjects == 0 {
				finished++
			}
		}
		t.Rows = append(t.Rows, []float64{d, float64(finished) / float64(len(queries))})
	}
	return t, nil
}

// Figure14 repeats the strategy comparison on Gaussian uncertainty pdfs
// (300-bar histograms, paper §V.5). Gaussian distance distributions carry
// two orders of magnitude more breakpoints, which is precisely the cost the
// verifiers avoid (paper Fig. 14, log-scale).
func Figure14(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	opt := uncertain.LongBeachOptions(cfg.Seed)
	if cfg.DatasetN > 0 {
		opt.N = cfg.DatasetN
	}
	ds, err := uncertain.GenerateGaussianAnalytic(opt)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1}
	t := &Table{
		Title:   "Figure 14: Gaussian-pdf query time (ms) vs threshold P",
		Columns: []string{"P", "basic_ms", "refine_ms", "vr_ms"},
	}
	basicSteps := cfg.BasicSteps
	if basicSteps == 0 {
		// Resolving every kink of ~96 folded 300-bar cdfs needs tens of
		// thousands of Simpson steps; this is what makes Basic hopeless on
		// Gaussian data.
		basicSteps = 20000
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	for _, p := range ps {
		c := verify.Constraint{P: p, Delta: cfg.Tolerance}
		row := []float64{p}
		for _, strat := range []core.Strategy{core.Basic, core.Refine, core.VR} {
			var ms mean
			for _, q := range queries {
				o := core.Options{Strategy: strat, Bins: cfg.GaussBars, BasicSteps: basicSteps}
				res, err := eng.CPNN(q, c, o)
				if err != nil {
					return nil, err
				}
				ms.addDuration(res.Stats.Total())
			}
			row = append(row, ms.value())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Registry maps figure numbers to their runners for the CLI.
var Registry = map[int]func(Config) (*Table, error){
	9:  Figure9,
	10: Figure10,
	11: Figure11,
	12: Figure12,
	13: Figure13,
	14: Figure14,
}

// RunAll executes every figure in ascending order, printing to w.
func RunAll(cfg Config, w io.Writer) error {
	for _, fig := range []int{9, 10, 11, 12, 13, 14} {
		start := time.Now()
		table, err := Registry[fig](cfg)
		if err != nil {
			return fmt.Errorf("figure %d: %w", fig, err)
		}
		table.Print(w)
		fmt.Fprintf(w, "# figure %d completed in %v\n\n", fig, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
