package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdf"
	"repro/internal/subregion"
)

// BatchOptions tunes batch C-PNN evaluation. The embedded Options apply to
// every query of the batch.
type BatchOptions struct {
	Options
	// Workers caps concurrent query evaluations; 0 means GOMAXPROCS.
	Workers int
}

// BatchStats aggregates the costs of one batch evaluation.
type BatchStats struct {
	// Queries is the batch size.
	Queries int
	// Workers is the worker-pool size actually used.
	Workers int
	// Wall is the end-to-end batch time; with more than one worker it is
	// smaller than the per-query times summed in Aggregate.
	Wall time.Duration
	// Aggregate sums the scalar per-query statistics (phase times, candidate
	// and subregion counts, refinement work). The per-query slice fields
	// (VerifiersApplied, UnknownAfter) and FMin are not aggregated; read them
	// from the individual Results.
	Aggregate Stats
}

// BatchResult is the outcome of a batch evaluation: one Result per query
// point, index-aligned with the input slice, plus batch-level statistics.
type BatchResult struct {
	Results []*Result
	Stats   BatchStats
}

// queryScratch is the evaluation scratch every query runs on, stateless or
// standing: the candidate buffer, subregion table and fold arena are
// recycled across queries, eliminating the per-query matrix allocation that
// would otherwise dominate a C-PNN call's allocation profile. Every query
// borrows one from scratchPool.
type queryScratch struct {
	cands []subregion.Candidate
	table subregion.Table
	arena pdf.Alloc
	// warmCands and warmTable are the buffers the current query found —
	// what the last release left, within scratchCap — which release
	// restores should the query leave the scratch over scratchCap.
	warmCands []subregion.Candidate
	warmTable subregion.Table
}

// scratchCap bounds the memory an idle scratch retains. A scratch grows to
// the largest query it served: on the Long Beach workload the candidate set
// is |C| p50 58 / p95 247 / p99 346 / max 571, its table |C|×(M+1) = 1,564 /
// 14,550 / 28,080 / 61,978 cells of 24 B = 37 KB / 350 KB / 674 KB /
// 1.49 MB. 1 MiB keeps everything up to ≈p99.5 warm; a query past it runs
// on its scratch like any other and release hands the scratch back the
// buffers it had before that query, so only those queries allocate their
// table afresh and the warm scratch never has to regrow. A standing query's
// incremental evaluation rebuilds its table on a pooled scratch too, so the
// same cap bounds it.
const scratchCap = 1 << 20

// scratchPool holds the idle scratches of the stateless entry points, the
// batch workers and the incremental entry points, each within scratchCap.
var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// borrow takes a scratch from the pool; park returns it.
func borrow() *queryScratch { return scratchPool.Get().(*queryScratch) }

// park releases the scratch and returns it to the pool.
func (sc *queryScratch) park() {
	sc.release()
	scratchPool.Put(sc)
}

// release readies the scratch to sit idle: it clears what the scratch still
// references of its last query — the candidate set's distance pdfs — and
// keeps every buffer's capacity for the next. A query that left the
// scratch over scratchCap keeps nothing it grew: the candidate buffer and
// table go back to the ones it found, which were within the cap, and the
// fold arena is dropped (it regrows in a few geometric steps). What is left
// is within the cap, so it is what the next query finds. Results never
// alias scratch memory (collect copies), so releasing after a query returns
// is safe.
func (sc *queryScratch) release() {
	clear(sc.cands[:cap(sc.cands)])
	sc.table.DropCandidates()
	sc.arena.Release()
	if sc.memBytes() > scratchCap {
		sc.cands, sc.table, sc.arena = sc.warmCands, sc.warmTable, pdf.Alloc{}
	}
	sc.warmCands, sc.warmTable = sc.cands, sc.table
}

// memBytes returns the approximate heap footprint the scratch retains
// between queries: subregion table, candidate buffer and fold arena.
func (sc *queryScratch) memBytes() int {
	return sc.table.MemBytes() + 16*cap(sc.cands) + sc.arena.MemBytes()
}

// runBatch distributes n query evaluations over a worker pool — the only
// parallelism inside core. Each query borrows a scratch from the pool (the
// pool's per-P caching makes this a worker-local reuse in practice); the
// first error cancels the remaining work.
func runBatch(n, workers int, eval func(i int, sc *queryScratch) (*Result, error)) (*BatchResult, error) {
	br := &BatchResult{Results: make([]*Result, n)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	br.Stats.Queries = n
	br.Stats.Workers = workers
	if n == 0 {
		return br, nil
	}

	start := time.Now()
	err := parallelFor(n, workers, func(i int) error {
		sc := borrow()
		defer sc.park()
		res, err := eval(i, sc)
		if err != nil {
			return fmt.Errorf("core: batch query %d: %w", i, err)
		}
		br.Results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	br.Stats.Wall = time.Since(start)

	for _, r := range br.Results {
		br.Stats.Aggregate.addScalars(r.Stats)
	}
	return br, nil
}

// parallelFor runs fn(i) for every i in [0, n) across a pool of workers
// goroutines (in the calling goroutine when workers <= 1). Indices are
// handed out through an atomic counter so stragglers never idle a worker;
// the first error stops the remaining work and is returned.
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// addScalars accumulates another query's scalar statistics.
func (s *Stats) addScalars(o Stats) {
	s.FilterTime += o.FilterTime
	s.InitTime += o.InitTime
	s.TableTime += o.TableTime
	s.VerifyTime += o.VerifyTime
	s.RefineTime += o.RefineTime
	s.Candidates += o.Candidates
	s.Subregions += o.Subregions
	s.RefinedObjects += o.RefinedObjects
	s.Integrations += o.Integrations
}
