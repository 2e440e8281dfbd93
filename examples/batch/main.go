// Example batch evaluates a whole query workload in one engine call — the
// pattern for analytical sweeps (score every sensor along a corridor, every
// candidate site against a fleet) where queries arrive together and
// throughput matters more than single-query latency. CPNNBatch fans the
// queries out over a worker pool, each running a single CPNN call's body on
// a pooled scratch; answers are identical to calling CPNN once per point.
package main

import (
	"fmt"
	"log"
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

	// 256 query points swept across the domain, answered in one batch.
	queries := pnn.QueryWorkload(256, opt.Domain, 7)
	c := pnn.Constraint{P: 0.3, Delta: 0.01}
	br, err := eng.CPNNBatch(queries, c, pnn.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	answered := 0
	for i, res := range br.Results {
		if len(res.Answers) > 0 {
			answered++
			if answered <= 3 { // show the first few non-empty answers
				fmt.Printf("q=%.1f: %d answers, e.g. object %d with p in [%.3f, %.3f]\n",
					queries[i], len(res.Answers),
					res.Answers[0].ID, res.Answers[0].Bounds.L, res.Answers[0].Bounds.U)
			}
		}
	}
	bs := br.Stats
	fmt.Printf("%d/%d queries had answers\n", answered, bs.Queries)
	fmt.Printf("batch wall %v over %d workers (%.0f queries/s); summed engine time %v\n",
		bs.Wall.Round(time.Microsecond), bs.Workers,
		float64(bs.Queries)/bs.Wall.Seconds(),
		bs.Aggregate.Total().Round(time.Microsecond))

	// The same points one call at a time: the batch's edge is its fan-out.
	start := time.Now()
	for _, q := range queries {
		if _, err := eng.CPNN(q, c, pnn.Options{}); err != nil {
			log.Fatal(err)
		}
	}
	singles := time.Since(start)
	fmt.Printf("loop of singles: %v — batch speed-up %.2fx\n",
		singles.Round(time.Microsecond), float64(singles)/float64(bs.Wall))
}
