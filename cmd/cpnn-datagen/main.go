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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/uncertain"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "cpnn-datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cpnn-datagen", flag.ContinueOnError)
	var (
		out       = fs.String("o", "", "output file (default stdout)")
		n         = fs.Int("n", 0, "object count (0 = Long Beach 53,144)")
		pdfKind   = fs.String("pdf", "uniform", "pdf family: uniform, gauss or hist")
		seed      = fs.Int64("seed", 1, "generator seed")
		gaussBars = fs.Int("gauss-bars", 300, "histogram bars for -pdf gauss")
		histBars  = fs.Int("hist-bars", 8, "max bars for -pdf hist")
		queries   = fs.Int("queries", 0, "emit a query workload of this many points instead of a dataset")
	)
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lo.Logger(os.Stderr, "cpnn-datagen")
	if err != nil {
		return err
	}

	// A negative count is a typo, not a request for the Long Beach default;
	// reject it before any generation work.
	if *n < 0 {
		return fmt.Errorf("object count -n %d must be >= 0 (0 selects the Long Beach 53,144)", *n)
	}
	if *queries < 0 {
		return fmt.Errorf("query count -queries %d must be >= 0", *queries)
	}

	opt := uncertain.LongBeachOptions(*seed)
	if *n > 0 {
		opt.N = *n
	}

	if *queries > 0 {
		qs := uncertain.QueryWorkload(*queries, opt.Domain, *seed)
		if err := writeTo(*out, stdout, func(w io.Writer) error { return uncertain.WriteQueries(w, qs) }); err != nil {
			return err
		}
		logger.Info("wrote query workload", "queries", len(qs), "out", *out)
		return nil
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
		return err
	}
	if err := writeTo(*out, stdout, func(w io.Writer) error {
		_, err := ds.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	logger.Info("wrote dataset", "objects", ds.Len(), "pdf", *pdfKind, "out", *out)
	return nil
}

// writeTo runs write against the output target: a file created at path when
// path is non-empty, stdout otherwise. A file is closed after the write,
// and a failed close is the write's error.
func writeTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
