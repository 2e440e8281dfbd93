package pnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	pnn "repro"
)

func TestFacadeQuickstart(t *testing.T) {
	ds := pnn.NewDataset([]pnn.PDF{
		pnn.MustUniform(8, 18),
		pnn.MustUniform(9, 13),
		pnn.MustUniform(2, 30),
		pnn.MustUniform(11, 17),
	})
	eng, err := pnn.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CPNN(12, pnn.Constraint{P: 0.3, Delta: 0.01}, pnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		if a.Status != pnn.StatusSatisfy {
			t.Errorf("answer %d status %v", a.ID, a.Status)
		}
		if a.Bounds.U < 0.3 {
			t.Errorf("answer %d upper bound %g below threshold", a.ID, a.Bounds.U)
		}
	}
}

func TestFacadeStrategiesAndVerifiers(t *testing.T) {
	opt := pnn.GenOptions{N: 300, Domain: 800, MeanLen: 12, MinLen: 1, MaxLen: 50, Seed: 4}
	ds, err := pnn.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pnn.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	c := pnn.Constraint{P: 0.3, Delta: 0}
	q := 400.0
	vr, err := eng.CPNN(q, c, pnn.Options{Strategy: pnn.StrategyVR, Verifiers: pnn.DefaultVerifiers()})
	if err != nil {
		t.Fatal(err)
	}
	basic, err := eng.CPNN(q, c, pnn.Options{Strategy: pnn.StrategyBasic, BasicSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	a, b := vr.AnswerIDs(), basic.AnswerIDs()
	if len(a) != len(b) {
		t.Fatalf("VR %v vs Basic %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("VR %v vs Basic %v", a, b)
		}
	}
}

func TestFacadePDFConstructors(t *testing.T) {
	if _, err := pnn.NewUniform(5, 5); err == nil {
		t.Error("degenerate uniform accepted")
	}
	g, err := pnn.PaperGaussian(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Mean(); math.Abs(got-3) > 1e-9 {
		t.Errorf("PaperGaussian mean = %g", got)
	}
	if _, err := pnn.NewGaussian(0, 6, 3, -1); err == nil {
		t.Error("negative sigma accepted")
	}
	h, err := pnn.NewHistogram([]float64{0, 1, 2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.CDF(1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("histogram CDF = %g", got)
	}
}

func TestFacadeWorkloadHelpers(t *testing.T) {
	lb := pnn.LongBeachOptions(1)
	if lb.N != 53144 {
		t.Errorf("LongBeachOptions N = %d", lb.N)
	}
	qs := pnn.QueryWorkload(10, 100, 2)
	if len(qs) != 10 {
		t.Errorf("workload size %d", len(qs))
	}
}

func TestFacade2D(t *testing.T) {
	eng, err := pnn.New2D([]pnn.Object2D{
		{ID: 0, Region: pnn.Circle{Center: pnn.Point{X: 3, Y: 0}, Radius: 2}},
		{ID: 1, Region: pnn.Circle{Center: pnn.Point{X: 0, Y: 4}, Radius: 2}},
		{ID: 2, Region: pnn.Circle{Center: pnn.Point{X: 50, Y: 50}, Radius: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CPNN(pnn.Point{X: 0, Y: 0}, pnn.Constraint{P: 0.3, Delta: 0.02},
		pnn.Options{Bins: 96})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 2 {
		t.Errorf("candidates = %d, want 2 (far disk pruned)", res.Stats.Candidates)
	}
	// The disk nearer to the origin must be the dominant answer.
	found := false
	for _, a := range res.Answers {
		if a.ID == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("nearest disk missing from answers: %v", res.Answers)
	}
}

// TestReadmeLayout is the layout half of the docs self-check: README's
// Layout table names every package directory under internal/, and names
// none that does not exist.
func TestReadmeLayout(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(readme), "\n## Layout\n")
	if !ok {
		t.Fatal("README has no Layout section")
	}
	layout, _, _ = strings.Cut(layout, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(layout, "\n") {
		if path, _, ok := strings.Cut(strings.TrimPrefix(line, "| "), " | "); ok && strings.HasPrefix(line, "| ") {
			for _, m := range regexp.MustCompile("`internal/([a-z0-9]+)`").FindAllStringSubmatch(path, -1) {
				documented[m[1]] = true
			}
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !documented[e.Name()] {
			t.Errorf("internal/%s has no row in README's Layout table", e.Name())
		}
		delete(documented, e.Name())
	}
	for name := range documented {
		t.Errorf("README's Layout table lists internal/%s, which does not exist", name)
	}
}

// TestReadmeFacadeNames is the facade half of the docs self-check: every
// pnn.Name in README.md or in pnn.go's package comment is an exported
// top-level name of pnn.go.
func TestReadmeFacadeNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "pnn.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level names; the pattern below matches capitalized ones only.
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = true
					}
				}
			}
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\bpnn\.([A-Z][A-Za-z0-9_]*)`)
	for _, doc := range []struct{ name, text string }{
		{"README.md", string(readme)},
		{"pnn.go's package comment", f.Doc.Text()},
	} {
		for _, m := range ref.FindAllStringSubmatch(doc.text, -1) {
			if !declared[m[1]] {
				t.Errorf("%s names pnn.%s, which pnn.go does not export", doc.name, m[1])
			}
		}
	}
}
