package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunRejectsOutOfRange: every flag whose value no figure can run at is
// refused with an error that names it, before any dataset is generated.
func TestRunRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-queries", "-1"},
		{"-queries", "0"},
		{"-n", "-5"},
		{"-basic-steps", "-1"},
		{"-gauss-bars", "-3"},
		{"-gauss-bars", "0"},
		{"-tolerance", "-0.1"},
		{"-tolerance", "1.5"},
		{"-tolerance", "NaN"},
		{"-fig", "8"},
	} {
		err := run([]string{tc.flag, tc.value}, io.Discard)
		if err == nil {
			t.Errorf("%s %s accepted", tc.flag, tc.value)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%s %s: error %q does not name the flag", tc.flag, tc.value, err)
		}
	}
	if err := run([]string{"-fig", "12", "stray"}, io.Discard); err == nil {
		t.Error("a positional argument was accepted")
	}
}

// TestRunFigure runs one figure at the edges the flags accept: Δ = 0 and
// the smallest workload.
func TestRunFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "13", "-queries", "1", "-n", "500", "-tolerance", "0"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# Figure 13:") || strings.Count(out, "\n") != 8 {
		t.Fatalf("figure 13 output:\n%s", out)
	}
}

// TestBenchFlagsDocumented: every flag `cpnn-bench -h` registers appears as
// `-name` in EXPERIMENTS.md's "Running" section.
func TestBenchFlagsDocumented(t *testing.T) {
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
	if len(flags) != 7 {
		t.Fatalf("parsed %d flags out of the usage text, want 7:\n%s", len(flags), usage)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	running := regexp.MustCompile(`(?s)\n## Running\n(.*?)\n## `).FindSubmatch(doc)
	if running == nil {
		t.Fatal(`EXPERIMENTS.md has no "## Running" section`)
	}
	for _, m := range flags {
		if !strings.Contains(string(running[1]), "`-"+m[1]+"`") {
			t.Errorf("cpnn-bench registers -%s, which EXPERIMENTS.md's Running section never mentions as `-%s`", m[1], m[1])
		}
	}
}
