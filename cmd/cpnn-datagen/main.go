// Command cpnn-datagen emits synthetic uncertain-interval datasets in the
// engine's text format, for use with cpnn-query -data.
//
// Examples:
//
//	cpnn-datagen -o lb.txt                       # Long-Beach-like, uniform pdfs
//	cpnn-datagen -pdf gauss -n 10000 -o g.txt    # Gaussian pdfs (300 bars)
//	cpnn-datagen -pdf hist -n 500 -o h.txt       # random histogram pdfs
//	cpnn-datagen -queries 512 -o q.txt           # query workload for cpnn-query -batch
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/uncertain"
)

func main() {
	var (
		out       = flag.String("o", "", "output file (default stdout)")
		n         = flag.Int("n", 0, "object count (0 = Long Beach 53,144)")
		pdfKind   = flag.String("pdf", "uniform", "pdf family: uniform, gauss or hist")
		seed      = flag.Int64("seed", 1, "generator seed")
		gaussBars = flag.Int("gauss-bars", 300, "histogram bars for -pdf gauss")
		histBars  = flag.Int("hist-bars", 8, "max bars for -pdf hist")
		queries   = flag.Int("queries", 0, "emit a query workload of this many points instead of a dataset")
	)
	var lo obs.LogOptions
	lo.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := lo.Logger(os.Stderr, "cpnn-datagen")
	if err != nil {
		fatal(err)
	}

	// A negative count is a typo, not a request for the Long Beach default;
	// reject it before any generation work.
	if *n < 0 {
		fatal(fmt.Errorf("object count -n %d must be >= 0 (0 selects the Long Beach 53,144)", *n))
	}
	if *queries < 0 {
		fatal(fmt.Errorf("query count -queries %d must be >= 0", *queries))
	}

	opt := uncertain.LongBeachOptions(*seed)
	if *n > 0 {
		opt.N = *n
	}

	if *queries > 0 {
		qs := uncertain.QueryWorkload(*queries, opt.Domain, *seed)
		w, closeFn, err := outWriter(*out)
		if err != nil {
			fatal(err)
		}
		if err := uncertain.WriteQueries(w, qs); err != nil {
			fatal(err)
		}
		if err := closeFn(); err != nil {
			fatal(err)
		}
		logger.Info("wrote query workload", "queries", len(qs), "out", *out)
		return
	}

	var ds *uncertain.Dataset
	switch *pdfKind {
	case "uniform":
		ds, err = uncertain.GenerateUniform(opt)
	case "gauss":
		ds, err = uncertain.GenerateGaussian(opt, *gaussBars)
	case "hist":
		ds, err = uncertain.GenerateHistogram(opt, *histBars)
	default:
		err = fmt.Errorf("unknown pdf family %q (uniform, gauss, hist)", *pdfKind)
	}
	if err != nil {
		fatal(err)
	}

	w, closeFn, err := outWriter(*out)
	if err != nil {
		fatal(err)
	}
	if _, err := ds.WriteTo(w); err != nil {
		fatal(err)
	}
	if err := closeFn(); err != nil {
		fatal(err)
	}
	logger.Info("wrote dataset", "objects", ds.Len(), "pdf", *pdfKind, "out", *out)
}

// outWriter opens the output target: a file when path is non-empty, stdout
// otherwise. The returned close function flushes and closes the file (a
// no-op for stdout).
func outWriter(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpnn-datagen:", err)
	os.Exit(1)
}
