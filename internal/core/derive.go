package core

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// deriver is the 1-D source's discretization memo: it memoizes pdf.Discretize
// results per (object, resolution) — discretization is query-independent, so
// the cost is paid once per object across a query workload — and derives one
// object's distance pdf through it. The pipeline's derive stage calls it once
// per candidate, in-line on the query's scratch. The zero value is ready.
type deriver struct {
	mu   sync.Mutex
	disc map[discKey]*pdf.Histogram
}

// discKey identifies one memoized discretization.
type discKey struct {
	id   int
	bins int
}

// discretize is a memoized pdf.Discretize keyed by object ID and resolution.
// The memo map is allocated on first use: only 1-D analytic pdfs ever reach
// it (histogram folds are query-dependent), so engines serving other
// workloads never pay for it. Concurrent queries may race to fill the same
// key; both compute the same histogram, so last-write-wins is harmless.
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
