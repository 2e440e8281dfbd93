// Example batch evaluates a whole query workload — the pattern for
// analytical sweeps (score every sensor along a corridor, every candidate
// site against a fleet) where queries arrive together and throughput
// matters more than single-query latency. The engine is safe for concurrent
// use and every CPNN call runs on its caller's goroutine, so a batch is a
// plain goroutine loop over CPNN: one goroutine per CPU, each taking the
// next point, with answers identical to calling CPNN once per point.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pnn "repro"
)

func main() {
	// A synthetic fleet in the paper's Long-Beach-like configuration, scaled
	// down so the example runs instantly.
	opt := pnn.LongBeachOptions(1)
	opt.N = 10000
	ds, err := pnn.GenerateUniform(opt)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := pnn.New(ds)
	if err != nil {
		log.Fatal(err)
	}

	// 256 query points swept across the domain, answered concurrently.
	queries := pnn.QueryWorkload(256, opt.Domain, 7)
	c := pnn.Constraint{P: 0.3, Delta: 0.01}
	results := make([]*pnn.Result, len(queries))
	errs := make([]error, len(queries))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(queries); i = int(next.Add(1) - 1) {
				results[i], errs[i] = eng.CPNN(queries[i], c, pnn.Options{})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	answered := 0
	for i, res := range results {
		if errs[i] != nil {
			log.Fatalf("query %d: %v", i, errs[i])
		}
		if len(res.Answers) > 0 {
			answered++
			if answered <= 3 { // show the first few non-empty answers
				fmt.Printf("q=%.1f: %d answers, e.g. object %d with p in [%.3f, %.3f]\n",
					queries[i], len(res.Answers),
					res.Answers[0].ID, res.Answers[0].Bounds.L, res.Answers[0].Bounds.U)
			}
		}
	}
	fmt.Printf("%d/%d queries had answers\n", answered, len(queries))
	fmt.Printf("batch wall %v over %d goroutines (%.0f queries/s)\n",
		wall.Round(time.Microsecond), runtime.GOMAXPROCS(0),
		float64(len(queries))/wall.Seconds())
}
