// Command cpnn-bench regenerates the paper's evaluation figures (§V,
// Figures 9–14) and prints the measured series as aligned tables.
//
// Usage:
//
//	cpnn-bench -fig 10 -queries 100
//	cpnn-bench -fig 0                          # run every figure
//	cpnn-bench -fig 13 -queries 4 -n 3000      # quick, deterministic
//
// Absolute timings depend on the host; the orderings, ratios and crossovers
// are the reproduction targets (see EXPERIMENTS.md). Serving-shape
// benchmarks live in bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "cpnn-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cpnn-bench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to reproduce (9-14); 0 runs all")
	queries := fs.Int("queries", 100, "queries averaged per data point (paper: 100)")
	seed := fs.Int64("seed", 1, "workload seed")
	n := fs.Int("n", 0, "dataset size override (0 = Long Beach 53,144)")
	basicSteps := fs.Int("basic-steps", 0, "Simpson steps for the Basic baseline (0 = automatic)")
	gaussBars := fs.Int("gauss-bars", 300, "histogram bars for Gaussian pdfs (paper: 300)")
	tolerance := fs.Float64("tolerance", 0.01, "tolerance Delta in [0, 1] (paper: 0.01)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *queries < 1:
		return fmt.Errorf("-queries %d: want at least 1", *queries)
	case *n < 0:
		return fmt.Errorf("-n %d: want 0 (Long Beach) or a positive size", *n)
	case *basicSteps < 0:
		return fmt.Errorf("-basic-steps %d: want 0 (automatic) or a positive count", *basicSteps)
	case *gaussBars < 1:
		return fmt.Errorf("-gauss-bars %d: want at least 1", *gaussBars)
	case !(*tolerance >= 0 && *tolerance <= 1):
		return fmt.Errorf("-tolerance %g: want a value in [0, 1]", *tolerance)
	}

	cfg := exp.Config{
		Queries:    *queries,
		Seed:       *seed,
		DatasetN:   *n,
		BasicSteps: *basicSteps,
		GaussBars:  *gaussBars,
		Tolerance:  *tolerance,
	}
	if *fig == 0 {
		return exp.RunAll(cfg, stdout)
	}
	figure, ok := exp.Registry[*fig]
	if !ok {
		return fmt.Errorf("-fig %d: unknown figure (valid: 9-14, or 0 for all)", *fig)
	}
	table, err := figure(cfg)
	if err != nil {
		return err
	}
	table.Print(stdout)
	return nil
}
