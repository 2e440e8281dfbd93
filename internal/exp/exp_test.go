package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// small returns a configuration fast enough for unit testing: a reduced
// dataset and few queries. Shape assertions must hold even at this scale.
func small() Config {
	return Config{Queries: 6, Seed: 1, DatasetN: 8000, BasicSteps: 400, GaussBars: 60, Tolerance: 0.01}
}

func TestFigure9Shape(t *testing.T) {
	tab, err := Figure9(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Basic time grows with dataset size; by the largest size it must
	// dominate filtering (the paper's crossover claim).
	first, err := tab.Cell(0, "basic_ms")
	if err != nil {
		t.Fatal(err)
	}
	last, err := tab.Cell(len(tab.Rows)-1, "basic_ms")
	if err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Errorf("Basic did not grow with dataset size: %g -> %g", first, last)
	}
	lastFilter, err := tab.Cell(len(tab.Rows)-1, "filter_ms")
	if err != nil {
		t.Fatal(err)
	}
	if last < lastFilter {
		t.Errorf("Basic (%g ms) should dominate filtering (%g ms) at 20k objects", last, lastFilter)
	}
}

// TestFigure10Shape gates the figure's shape on work, not wall time: a
// millisecond cell moves with the scheduler, while the objects each strategy
// refines and the integrations it runs over the figure's queries do not.
func TestFigure10Shape(t *testing.T) {
	cfg := small()
	tab, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, col := range []string{"basic_ms", "refine_ms", "vr_ms"} {
		if _, err := tab.Cell(0, col); err != nil {
			t.Fatal(err)
		}
	}

	// The figure's queries, replayed per strategy and threshold.
	cfg = cfg.withDefaults()
	ds, opt, err := longBeach(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	queries := uncertain.QueryWorkload(cfg.Queries, opt.Domain, cfg.Seed+1)
	work := func(p float64, strat core.Strategy) (refined, integrations int) {
		c := verify.Constraint{P: p, Delta: cfg.Tolerance}
		for _, q := range queries {
			res, err := eng.CPNN(q, c, core.Options{Strategy: strat, BasicSteps: cfg.BasicSteps})
			if err != nil {
				t.Fatal(err)
			}
			refined += res.Stats.RefinedObjects
			integrations += res.Stats.Integrations
		}
		return refined, integrations
	}
	// At every P: VR refines no more objects, and integrates no more, than
	// Refine, which refines every candidate as Basic does.
	for r := range tab.Rows {
		p := tab.Rows[r][0]
		basic, _ := work(p, core.Basic)
		refine, refineInt := work(p, core.Refine)
		vr, vrInt := work(p, core.VR)
		if refine > basic {
			t.Errorf("P=%g: Refine refined %d objects, Basic %d", p, refine, basic)
		}
		if vr > refine || vrInt > refineInt {
			t.Errorf("P=%g: VR refined %d objects in %d integrations, Refine %d in %d",
				p, vr, vrInt, refine, refineInt)
		}
	}
	// VR at P=0.3 refines well under half of what Basic does: a VR that
	// degenerates to full refinement refines every candidate and fails here.
	basic, _ := work(0.3, core.Basic)
	vr, _ := work(0.3, core.VR)
	if basic == 0 || vr > basic/2 {
		t.Errorf("P=0.3: VR refined %d objects, not well below Basic's %d", vr, basic)
	}
}

func TestFigure11Shape(t *testing.T) {
	tab, err := Figure11(small())
	if err != nil {
		t.Fatal(err)
	}
	// Refinement cost decreases with P and is ~zero at P=1.
	firstRefine, _ := tab.Cell(0, "refine_ms")
	lastRefine, _ := tab.Cell(len(tab.Rows)-1, "refine_ms")
	if lastRefine > firstRefine+1e-9 {
		t.Errorf("refinement at P=1 (%g) exceeds P=0.1 (%g)", lastRefine, firstRefine)
	}
}

func TestFigure12Shape(t *testing.T) {
	cfg := small()
	cfg.Queries = 20
	tab, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		rs, _ := tab.Cell(r, "after_RS")
		lsr, _ := tab.Cell(r, "after_LSR")
		usr, _ := tab.Cell(r, "after_USR")
		// Later verifiers only ever shrink the unknown set.
		if lsr > rs+1e-9 || usr > lsr+1e-9 {
			t.Errorf("row %d: unknown fractions not monotone: %g %g %g", r, rs, lsr, usr)
		}
		if rs < 0 || rs > 1 {
			t.Errorf("row %d: fraction %g outside [0,1]", r, rs)
		}
	}
	// The RS curve decreases with P (easier to fail objects at high P).
	first, _ := tab.Cell(0, "after_RS")
	last, _ := tab.Cell(len(tab.Rows)-1, "after_RS")
	if last > first {
		t.Errorf("after_RS increased with P: %g -> %g", first, last)
	}
}

func TestFigure13Shape(t *testing.T) {
	cfg := small()
	cfg.Queries = 15
	tab, err := Figure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Larger tolerance can only finish more queries (monotone
	// non-decreasing fractions).
	prev := -1.0
	for r := range tab.Rows {
		f, _ := tab.Cell(r, "finished_frac")
		if f < prev-1e-9 {
			t.Errorf("finished fraction decreased at row %d: %g -> %g", r, prev, f)
		}
		if f < 0 || f > 1 {
			t.Errorf("fraction %g outside [0,1]", f)
		}
		prev = f
	}
}

func TestFigure14Shape(t *testing.T) {
	cfg := small()
	cfg.Queries = 2
	cfg.DatasetN = 5000
	cfg.BasicSteps = 2000
	tab, err := Figure14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// VR must beat Basic at every threshold on Gaussian data.
	for r := range tab.Rows {
		basic, _ := tab.Cell(r, "basic_ms")
		vr, _ := tab.Cell(r, "vr_ms")
		if vr > basic {
			t.Errorf("row %d: VR %g slower than Basic %g on Gaussian data", r, vr, basic)
		}
	}
}

func TestTablePrintAndCell(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"x", "y"},
		Rows:    [][]float64{{1, 2}, {3, 4}},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.0000") {
		t.Errorf("Print output malformed:\n%s", out)
	}
	if v, err := tab.Cell(1, "y"); err != nil || v != 4 {
		t.Errorf("Cell = %g, %v", v, err)
	}
	if _, err := tab.Cell(0, "nope"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tab.Cell(9, "x"); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, fig := range []int{9, 10, 11, 12, 13, 14} {
		if Registry[fig] == nil {
			t.Errorf("figure %d missing from registry", fig)
		}
	}
}

func TestMeanBasics(t *testing.T) {
	var m mean
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.add(v)
	}
	if m.n != 8 {
		t.Errorf("n = %d, want 8", m.n)
	}
	if m.sum != 40 {
		t.Errorf("sum = %g, want 40", m.sum)
	}
	if got := m.value(); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m mean
	if m.value() != 0 || m.n != 0 {
		t.Errorf("empty mean = %g over %d values", m.value(), m.n)
	}
}

func TestMeanAddDuration(t *testing.T) {
	var d mean
	d.addDuration(1500 * time.Microsecond)
	if got := d.value(); got != 1.5 {
		t.Errorf("1500µs = %g ms, want 1.5", got)
	}
}

// TestToleranceIsExact: a zero Tolerance is Δ = 0, not a request for the
// paper's 0.01.
func TestToleranceIsExact(t *testing.T) {
	if got := (Config{}).withDefaults().Tolerance; got != 0 {
		t.Errorf("Tolerance 0 runs at Δ = %g", got)
	}
}
