package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/subregion"
	"repro/internal/uncertain"
)

// deriver is the candidate-derivation stage of the pipeline: it turns a
// filtered position set into subregion.Candidates by deriving each object's
// distance distribution. It memoizes pdf.Discretize results per
// (object, resolution) — discretization is query-independent, so the cost is
// paid once per object across a query workload — and fans the per-candidate
// folds across a bounded worker pool, since each derivation is independent.
// Future strategies (batch queries, k-NN variants) plug in here rather than
// growing their own per-candidate loops.
type deriver struct {
	mu      sync.Mutex
	disc    map[discKey]*pdf.Histogram
	workers int
}

// discKey identifies one memoized discretization.
type discKey struct {
	id   int
	bins int
}

func newDeriver() *deriver {
	return &deriver{workers: runtime.GOMAXPROCS(0)}
}

// discretize is a memoized pdf.Discretize keyed by object ID and resolution.
// The memo map is allocated on first use: only 1-D analytic pdfs ever reach
// it (histogram folds and the 2-D lens reduction are query-dependent), so
// engines serving other workloads never pay for it. Concurrent callers may
// race to fill the same key; both compute the same histogram, so
// last-write-wins is harmless.
func (dv *deriver) discretize(id int, p pdf.PDF, bins int) (*pdf.Histogram, error) {
	key := discKey{id: id, bins: bins}
	dv.mu.Lock()
	h, ok := dv.disc[key]
	dv.mu.Unlock()
	if ok {
		return h, nil
	}
	h, err := pdf.Discretize(p, bins)
	if err != nil {
		return nil, err
	}
	dv.mu.Lock()
	if dv.disc == nil {
		dv.disc = make(map[discKey]*pdf.Histogram)
	}
	dv.disc[key] = h
	dv.mu.Unlock()
	return h, nil
}

// distFor derives the distance pdf of one 1-D object: exact folds for
// uniform and histogram pdfs, memoized discretization then a bin-exact fold
// for everything else (the paper's treatment of Gaussian uncertainty). The
// fold result is drawn from a (possibly nil) query-scoped arena; only the
// memoized discretization, which outlives queries, stays on the heap.
func (dv *deriver) distFor(obj uncertain.Object, q float64, bins int, a *pdf.Alloc) (*pdf.Histogram, error) {
	switch p := obj.PDF.(type) {
	case *pdf.Histogram:
		return dist.FoldHistogramIn(a, p, q)
	case pdf.Uniform:
		// obj.PDF, not p: re-boxing the unwrapped value into the parameter's
		// interface would cost one heap allocation per candidate.
		return dist.FromPDFIn(a, obj.PDF, q)
	default:
		h, err := dv.discretize(obj.ID, obj.PDF, bins)
		if err != nil {
			return nil, err
		}
		return dist.FoldHistogramIn(a, h, q)
	}
}

// serialDeriveCutoff is the candidate count below which deriveSet runs
// serially: each derivation costs tens of microseconds (a 300-bin fold), so
// under ~16 candidates the goroutine fan-out costs more than it saves.
const serialDeriveCutoff = 16

// deriveSet derives the distance distribution of every candidate and
// assembles the candidate set in input order. fn maps a position in [0, n)
// to that candidate; positions are distributed over the worker pool, with a
// serial fast path for small sets. dst, when its capacity suffices, provides
// the backing array of the returned candidate slice (the batch path recycles
// it per worker); serial forces the in-line path — batch workers already
// saturate the cores at query granularity, so fanning out per-candidate
// goroutines underneath them would only add scheduling churn.
func (dv *deriver) deriveSet(dst []subregion.Candidate, n int, serial bool, fn func(i int) (subregion.Candidate, error)) ([]subregion.Candidate, error) {
	var cands []subregion.Candidate
	if cap(dst) >= n {
		cands = dst[:n]
	} else {
		cands = make([]subregion.Candidate, n)
	}
	workers := dv.workers
	if workers > n {
		workers = n
	}
	if serial || n < serialDeriveCutoff {
		workers = 1
	}
	err := parallelFor(n, workers, func(i int) (err error) {
		cands[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cands, nil
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
