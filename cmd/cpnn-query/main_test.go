package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want core.Strategy
		ok   bool
	}{
		{"vr", core.VR, true},
		{"refine", core.Refine, true},
		{"basic", core.Basic, true},
		{"BASIC", 0, false},
		{"", 0, false},
		{"monte-carlo", 0, false},
	}
	for _, tc := range cases {
		got, err := parseStrategy(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseStrategy(%q) error = %v", tc.in, err)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseStrategy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLoadDataset(t *testing.T) {
	if _, err := loadDataset("", false, 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadDataset("/nonexistent/file", false, 1); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "ds.txt")
	if err := os.WriteFile(path, []byte("1 2\n5 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := loadDataset(path, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("loaded %d objects", ds.Len())
	}
}

func TestValidateInputs(t *testing.T) {
	ok := verify.Constraint{P: 0.3, Delta: 0.01}
	cases := []struct {
		name     string
		c        verify.Constraint
		strategy string
		k        int
		pnn      bool
		wantErr  bool
	}{
		{"defaults", ok, "vr", 0, false, false},
		{"knn", ok, "vr", 3, false, false},
		{"P zero", verify.Constraint{P: 0, Delta: 0.01}, "vr", 0, false, true},
		{"P above one", verify.Constraint{P: 1.5, Delta: 0.01}, "vr", 0, false, true},
		{"negative delta", verify.Constraint{P: 0.3, Delta: -0.1}, "vr", 0, false, true},
		{"delta above one", verify.Constraint{P: 0.3, Delta: 2}, "vr", 0, false, true},
		{"negative k", ok, "vr", -1, false, true},
		{"bad strategy", ok, "quantum", 0, false, true},
		// -pnn ignores the constraint, so a bad one must not block it.
		{"pnn skips constraint", verify.Constraint{P: 0, Delta: 0}, "vr", 0, true, false},
		{"pnn still checks k", ok, "vr", -2, true, true},
	}
	for _, tc := range cases {
		_, err := validateInputs(tc.c, tc.strategy, tc.k, tc.pnn)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateInputs error = %v, wantErr %t", tc.name, err, tc.wantErr)
		}
	}
}

// TestDatagenRoundTrip checks that datasets serialized the way cpnn-datagen
// writes them (Dataset.WriteTo) parse back through this command's loader, for
// both line formats: "lo hi" uniform lines and "hist ... | ..." histogram
// lines (the -pdf gauss and -pdf hist outputs).
func TestDatagenRoundTrip(t *testing.T) {
	opt := uncertain.GenOptions{
		N:       200,
		Domain:  500,
		MeanLen: 4,
		MinLen:  0.5,
		MaxLen:  20,
		Seed:    5,
	}
	gen := map[string]func() (*uncertain.Dataset, error){
		"uniform": func() (*uncertain.Dataset, error) { return uncertain.GenerateUniform(opt) },
		"gauss":   func() (*uncertain.Dataset, error) { return uncertain.GenerateGaussian(opt, 40) },
		"hist":    func() (*uncertain.Dataset, error) { return uncertain.GenerateHistogram(opt, 8) },
	}
	for name, fn := range gen {
		t.Run(name, func(t *testing.T) {
			ds, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), name+".txt")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.WriteTo(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			got, err := loadDataset(path, false, 1)
			if err != nil {
				t.Fatalf("round-trip parse: %v", err)
			}
			if got.Len() != ds.Len() {
				t.Fatalf("round-trip lost objects: %d != %d", got.Len(), ds.Len())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("round-tripped dataset invalid: %v", err)
			}
			for i := 0; i < ds.Len(); i++ {
				want, have := ds.Object(i).Region(), got.Object(i).Region()
				if dLo, dHi := have.Lo-want.Lo, have.Hi-want.Hi; dLo != 0 || dHi != 0 {
					t.Fatalf("object %d region drifted: %v -> %v", i, want, have)
				}
			}

			// The reloaded dataset must answer queries: run one C-PNN
			// end-to-end like the command would.
			eng, err := core.NewEngine(got)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.CPNN(opt.Domain/2, verify.Constraint{P: 0.1, Delta: 0.05}, core.Options{}); err != nil {
				t.Fatalf("query over round-tripped dataset: %v", err)
			}
		})
	}
}

func TestLoadDatasetGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("full Long Beach generation in -short mode")
	}
	ds, err := loadDataset("", true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 53144 {
		t.Errorf("generated %d objects, want 53144", ds.Len())
	}
}

// TestQueryFlagsDocumented: every flag `cpnn-query -h` registers appears in
// README as `-name` (or `-name VALUE`).
func TestQueryFlagsDocumented(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = pw
	runErr := run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	pw.Close()
	usage, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", runErr)
	}
	flags := regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`).FindAllStringSubmatch(string(usage), -1)
	if len(flags) < 14 {
		t.Fatalf("parsed %d flags out of the usage text:\n%s", len(flags), usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flags {
		if !regexp.MustCompile("`-" + m[1] + "[` ]").Match(readme) {
			t.Errorf("cpnn-query registers -%s, which README never mentions as `-%s`", m[1], m[1])
		}
	}
}

// TestBatchNamesBadPoint: a -batch file holding a non-finite point fails
// before any engine work and names the point's line, and the fan-out behind
// -batch names the index of the query that fails.
func TestBatchNamesBadPoint(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "ds.txt")
	if err := os.WriteFile(data, []byte("1 2\n5 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := filepath.Join(dir, "qs.txt")
	if err := os.WriteFile(queries, []byte("# sweep\n3\nNaN\n7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-data", data, "-batch", queries}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("run -batch over a NaN point = %v, want an error naming line 3", err)
	}

	ds, err := loadDataset(data, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, workers := range []int{1, 3} {
		_, _, err := cpnnAll(eng, []float64{3, math.Inf(1), 7, math.NaN()}, c, core.Options{}, workers)
		if err == nil || !strings.Contains(err.Error(), "query 1 ") {
			t.Errorf("workers=%d: cpnnAll = %v, want an error naming query 1", workers, err)
		}
	}
}

// TestBatchMatchesSingles: -batch prints, in file order, each point's
// answers exactly as a CPNN call answers them, whatever -workers is.
func TestBatchMatchesSingles(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "ds.txt")
	if err := os.WriteFile(data, []byte("1 2\n5 9\n4 6\n12 15\n2.5 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qs := []float64{3, 8, 0.5, 13, 6}
	var file strings.Builder
	for _, q := range qs {
		fmt.Fprintln(&file, q)
	}
	queries := filepath.Join(dir, "qs.txt")
	if err := os.WriteFile(queries, []byte(file.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := loadDataset(data, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, q := range qs {
		res, err := eng.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "C-PNN(q=%g): %d answers of %d candidates", q, len(res.Answers), res.Stats.Candidates)
		for _, a := range res.Answers {
			fmt.Fprintf(&want, "  %d:[%.4f,%.4f]", a.ID, a.Bounds.L, a.Bounds.U)
		}
		fmt.Fprintln(&want)
	}
	for _, workers := range []string{"1", "4"} {
		var out strings.Builder
		if err := run([]string{"-data", data, "-batch", queries, "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		got, summary, _ := strings.Cut(out.String(), "batch: ")
		if got != want.String() {
			t.Errorf("-workers %s answers:\n%s\nwant:\n%s", workers, got, want.String())
		}
		if !strings.HasPrefix(summary, fmt.Sprintf("%d queries on ", len(qs))) {
			t.Errorf("-workers %s summary %q", workers, summary)
		}
	}
}
