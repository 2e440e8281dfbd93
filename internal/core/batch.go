package core

import (
	"fmt"
	"runtime"
	"sync"
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

// queryScratch is the per-worker evaluation scratch of the batch path: the
// candidate buffer and subregion table are recycled across queries (and,
// through scratchPool, across batches), eliminating the per-query matrix
// allocation that dominates a single CPNN call's allocation profile. A nil
// *queryScratch is valid and means "allocate fresh", which is what the
// single-query entry points use.
type queryScratch struct {
	cands []subregion.Candidate
	table subregion.Table
	arena pdf.Alloc
	// parallelDerive re-enables per-candidate derivation fan-out for this
	// query: set when the batch itself is too small to saturate the cores.
	parallelDerive bool
}

// serialDerive reports whether per-candidate derivation should stay in-line:
// true exactly when a batch scratch is in play and the batch already
// saturates the worker pool at query granularity.
func (sc *queryScratch) serialDerive() bool { return sc != nil && !sc.parallelDerive }

// scratchPool recycles query scratch across batch workers and batch calls.
var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// foldArena returns the scratch's fold arena when derivation runs in-line.
// The arena is not safe for concurrent use, so a query whose derivation
// fans out (parallelDerive) falls back to heap folds, exactly like the
// single-query path.
func (sc *queryScratch) foldArena() *pdf.Alloc {
	if sc.serialDerive() {
		return &sc.arena
	}
	return nil
}

// resetArena invalidates the previous query's fold histograms, making their
// storage reusable. Results never retain arena memory (collect copies), so
// resetting at the start of each query is safe.
func (sc *queryScratch) resetArena() {
	if sc != nil {
		sc.arena.Reset()
	}
}

// candBuf returns the reusable candidate buffer, nil on a nil scratch.
func (sc *queryScratch) candBuf() []subregion.Candidate {
	if sc == nil {
		return nil
	}
	return sc.cands
}

// keepCandBuf retains a (possibly re-grown) candidate buffer for the next
// query evaluated on this scratch.
func (sc *queryScratch) keepCandBuf(cands []subregion.Candidate) {
	if sc != nil && cap(cands) > cap(sc.cands) {
		sc.cands = cands[:0]
	}
}

// buildTable builds the subregion table for a candidate set, in place over
// the scratch's table when one is supplied.
func (sc *queryScratch) buildTable(cands []subregion.Candidate) (*subregion.Table, error) {
	if sc == nil {
		return subregion.Build(cands)
	}
	if err := sc.table.Rebuild(cands); err != nil {
		return nil, err
	}
	return &sc.table, nil
}

// release clears what the scratch still references of its last query — the
// candidate set's distance pdfs, which are heap histograms whenever that
// query's derivation fanned out — and keeps every float buffer's capacity.
// Whoever parks a scratch between queries (runBatch's pool, a server worker
// slot) calls it first, so an idle scratch pins only its own storage.
func (sc *queryScratch) release() {
	clear(sc.cands[:cap(sc.cands)])
	sc.table.DropCandidates()
	sc.arena.Release()
}

// Scratch is a caller-owned reusable evaluation scratch for long-lived loops
// that evaluate single queries one at a time — the monitor's re-evaluation
// workers hold one per worker, the server one per worker slot. It recycles
// the candidate buffer, subregion table and fold arena exactly like a batch
// worker's pooled scratch, cutting the per-query allocation profile to the
// batch path's, and derives candidates in-line: its owner already
// parallelises at query granularity. A Scratch is not safe for concurrent
// use; the zero value (and NewScratch) is ready.
type Scratch struct{ qs queryScratch }

// NewScratch returns an empty reusable evaluation scratch.
func NewScratch() *Scratch { return &Scratch{} }

// query is the scratch's pipeline-side form; a nil Scratch stays nil, which
// the pipeline reads as "allocate fresh".
func (s *Scratch) query() *queryScratch {
	if s == nil {
		return nil
	}
	return &s.qs
}

// Release drops the scratch's references to the last query's candidates
// while keeping its buffers, for an owner about to leave it idle. The next
// query may use it as is.
func (s *Scratch) Release() { s.qs.release() }

// MemBytes returns the approximate heap footprint the scratch retains
// between queries: subregion table, candidate buffer and fold arena. It
// grows to the largest query the scratch has served, so an owner that parks
// scratches caps it by replacing one that outgrew its budget.
func (s *Scratch) MemBytes() int {
	return s.qs.table.MemBytes() + 16*cap(s.qs.cands) + s.qs.arena.MemBytes()
}

// runBatch distributes n query evaluations over a worker pool. Each query
// borrows a scratch from the pool (the pool's per-P caching makes this a
// worker-local reuse in practice); the first error cancels the remaining
// work.
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

	// A batch below the core count cannot saturate the machine at query
	// granularity; let each of its queries keep the single-query path's
	// per-candidate derivation fan-out instead.
	nested := workers < runtime.GOMAXPROCS(0)
	start := time.Now()
	err := parallelFor(n, workers, func(i int) error {
		sc := scratchPool.Get().(*queryScratch)
		sc.parallelDerive = nested
		defer func() {
			sc.release()
			scratchPool.Put(sc)
		}()
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
