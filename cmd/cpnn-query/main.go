// Command cpnn-query runs ad-hoc probabilistic nearest-neighbor queries over
// a dataset file (in the format written by cpnn-datagen) or a freshly
// generated Long-Beach-like dataset.
//
// Examples:
//
//	cpnn-query -gen -q 5000 -p 0.3 -delta 0.01
//	cpnn-query -data intervals.txt -q 120.5 -p 0.5 -strategy basic
//	cpnn-query -gen -q 5000 -pnn            # exact probabilities
//	cpnn-query -gen -q 5000 -k 3 -p 0.5     # constrained 3-NN
//	cpnn-query -gen -batch queries.txt      # batch-evaluate a query file
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "cpnn-query:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpnn-query", flag.ContinueOnError)
	var (
		dataPath = fs.String("data", "", "dataset file (one 'lo hi' or 'hist ...' line per object)")
		gen      = fs.Bool("gen", false, "generate the Long-Beach-like dataset instead of loading one")
		seed     = fs.Int64("seed", 1, "generator seed for -gen")
		q        = fs.Float64("q", 0, "query point")
		p        = fs.Float64("p", 0.3, "threshold P in (0,1]")
		delta    = fs.Float64("delta", 0.01, "tolerance Delta in [0,1]")
		strategy = fs.String("strategy", "vr", "evaluation strategy: vr, refine or basic")
		pnnMode  = fs.Bool("pnn", false, "report exact qualification probabilities instead of a C-PNN")
		k        = fs.Int("k", 0, "evaluate a constrained k-NN query with this k (0 = plain C-PNN)")
		batch    = fs.String("batch", "", "batch-evaluate every query point in this file (one per line)")
		workers  = fs.Int("workers", 0, "goroutines evaluating the -batch points (0 = GOMAXPROCS)")
		verbose  = fs.Bool("v", false, "print per-phase statistics")
	)
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lo.Logger(os.Stderr, "cpnn-query")
	if err != nil {
		return err
	}

	// Reject invalid user input before any dataset or engine work: a bad
	// threshold should fail in microseconds, not after generating 53k objects.
	c := verify.Constraint{P: *p, Delta: *delta}
	st, err := validateInputs(c, *strategy, *k, *pnnMode)
	if err != nil {
		return err
	}
	var batchQs []float64
	if *batch != "" {
		if *pnnMode || *k > 0 {
			return fmt.Errorf("-batch is a C-PNN mode; it cannot combine with -pnn or -k")
		}
		f, err := os.Open(*batch)
		if err != nil {
			return err
		}
		batchQs, err = uncertain.ReadQueries(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(batchQs) == 0 {
			return fmt.Errorf("query file %s holds no query points", *batch)
		}
	}

	loadStart := time.Now()
	ds, err := loadDataset(*dataPath, *gen, *seed)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return err
	}
	logger.Debug("engine ready",
		"objects", ds.Len(), "build_ms", float64(time.Since(loadStart))/float64(time.Millisecond))

	if *batch != "" {
		start := time.Now()
		results, used, err := cpnnAll(eng, batchQs, c, core.Options{Strategy: st}, *workers)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var engine time.Duration
		for i, res := range results {
			fmt.Fprintf(out, "C-PNN(q=%g): %d answers of %d candidates", batchQs[i], len(res.Answers), res.Stats.Candidates)
			for _, a := range res.Answers {
				fmt.Fprintf(out, "  %d:[%.4f,%.4f]", a.ID, a.Bounds.L, a.Bounds.U)
			}
			fmt.Fprintln(out)
			engine += res.Stats.Total()
		}
		fmt.Fprintf(out, "batch: %d queries on %d goroutines, wall %v (%.0f queries/s), engine time %v\n",
			len(batchQs), used, wall.Round(time.Microsecond),
			float64(len(batchQs))/wall.Seconds(), engine.Round(time.Microsecond))
		return nil
	}

	switch {
	case *pnnMode:
		probs, st, err := eng.PNN(*q, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "PNN(q=%g): %d candidates\n", *q, st.Candidates)
		for _, pr := range probs {
			fmt.Fprintf(out, "  object %6d  p=%.4f\n", pr.ID, pr.P)
		}
		if *verbose {
			printStats(out, st)
		}
	case *k > 0:
		answers, kst, err := eng.CKNN(*q, c, core.KNNOptions{K: *k})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "C-P%dNN(q=%g, P=%g, Delta=%g):\n", *k, *q, *p, *delta)
		for _, a := range answers {
			if a.Status == verify.Satisfy {
				fmt.Fprintf(out, "  object %6d  p=%.4f\n", a.ID, a.Bounds.L)
			}
		}
		if *verbose {
			printStats(out, kst)
		}
	default:
		res, err := eng.CPNN(*q, c, core.Options{Strategy: st})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "C-PNN(q=%g, P=%g, Delta=%g) via %v: %d answers of %d candidates\n",
			*q, *p, *delta, st, len(res.Answers), res.Stats.Candidates)
		for _, a := range res.Answers {
			fmt.Fprintf(out, "  object %6d  p in [%.4f, %.4f]\n", a.ID, a.Bounds.L, a.Bounds.U)
		}
		if *verbose {
			printStats(out, res.Stats)
		}
	}
	return nil
}

// cpnnAll evaluates a C-PNN at every point of qs, with up to workers
// goroutines (GOMAXPROCS when workers <= 0) each taking the next point. It
// returns the results index-aligned with qs and the goroutine count used;
// if any query fails, the error names the lowest failing index.
func cpnnAll(eng *core.Engine, qs []float64, c verify.Constraint, opt core.Options, workers int) ([]*core.Result, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(qs))
	results := make([]*core.Result, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
				results[i], errs[i] = eng.CPNN(qs[i], c, opt)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, workers, fmt.Errorf("batch query %d (q=%g): %w", i, qs[i], err)
		}
	}
	return results, workers, nil
}

func loadDataset(path string, gen bool, seed int64) (*uncertain.Dataset, error) {
	switch {
	case gen:
		return uncertain.GenerateUniform(uncertain.LongBeachOptions(seed))
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := uncertain.Read(f)
		if err != nil {
			return nil, err
		}
		// Same ingestion contract as cpnn-serve: file datasets are checked
		// for pdf invariants before any query runs against them.
		if err := ds.Validate(); err != nil {
			return nil, err
		}
		return ds, nil
	default:
		return nil, fmt.Errorf("provide -data FILE or -gen")
	}
}

// validateInputs checks every query parameter up front. The constraint is
// only validated for the modes that use it (-pnn reports raw probabilities
// and carries no threshold).
func validateInputs(c verify.Constraint, strategy string, k int, pnnMode bool) (core.Strategy, error) {
	st, err := parseStrategy(strategy)
	if err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("k = %d must be >= 0 (0 disables k-NN mode)", k)
	}
	if !pnnMode {
		if err := c.Validate(); err != nil {
			return 0, err
		}
	}
	return st, nil
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "vr":
		return core.VR, nil
	case "refine":
		return core.Refine, nil
	case "basic":
		return core.Basic, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (vr, refine, basic)", s)
	}
}

func printStats(out io.Writer, st core.Stats) {
	fmt.Fprintf(out, "stats: |C|=%d M=%d f_min=%.3f filter=%v init=%v verify=%v refine=%v\n",
		st.Candidates, st.Subregions, st.FMin,
		st.FilterTime, st.InitTime, st.VerifyTime, st.RefineTime)
	if len(st.VerifiersApplied) > 0 {
		fmt.Fprintf(out, "verifiers: %v unknown-after=%v refined=%d integrations=%d\n",
			st.VerifiersApplied, st.UnknownAfter, st.RefinedObjects, st.Integrations)
	}
}
