package core

import (
	"fmt"
	"time"

	"repro/internal/pdf"
	"repro/internal/subregion"
	"repro/internal/verify"
)

// source is everything the pipeline needs to know about a dataset: how to
// reject a bad query point, which objects survive the filter (as positions in
// the source's own numbering, with the filtering bound f_min), the external
// ID of a position, and the distance pdf of one object from the query point.
// Past derivation every stage works on distance distributions alone, which
// is why one pipeline serves any dimension (the paper's §IV-A note).
//
// It is consulted once per query (check, candidates) and once per candidate
// (id, dist) — never from inside a fold, a verifier or a refinement loop.
type source[Q any] interface {
	check(q Q) error
	candidates(q Q) (pos []int, fMin float64)
	id(pos int) int
	dist(pos int, q Q, bins int, a *pdf.Alloc) (*pdf.Histogram, error)
}

// pipeline is the paper's evaluation sequence — filter, derive, subregion
// table, verify, refine — over a source. Engine and Engine2D embed it, so
// every stateless entry point has this one body.
type pipeline[Q any] struct {
	src source[Q]
	dv  *deriver
}

// CPNN evaluates a constrained probabilistic nearest-neighbor query at point
// q under the given constraint and options.
func (p *pipeline[Q]) CPNN(q Q, c verify.Constraint, opt Options) (*Result, error) {
	return p.CPNNScratch(q, c, opt, nil)
}

// CPNNScratch is CPNN evaluated on a caller-owned scratch. Results never
// alias scratch memory, so they stay valid across subsequent calls. A nil
// scratch allocates fresh, which is plain CPNN.
func (p *pipeline[Q]) CPNNScratch(q Q, c verify.Constraint, opt Options, sc *Scratch) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.src.check(q); err != nil {
		return nil, err
	}
	return p.cpnn(q, c, opt.withDefaults(), sc.query())
}

// CPNNBatch evaluates one C-PNN per query point over a bounded worker pool,
// sharing the engine's filter index and discretization memo and recycling
// per-query scratch (subregion tables, candidate buffers) via a sync.Pool.
// Results are index-aligned with qs; answers are identical to evaluating
// each point with CPNN. The first failing query aborts the batch.
func (p *pipeline[Q]) CPNNBatch(qs []Q, c verify.Constraint, opt BatchOptions) (*BatchResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i, q := range qs {
		if err := p.src.check(q); err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	o := opt.Options.withDefaults()
	return runBatch(len(qs), opt.Workers, func(i int, sc *queryScratch) (*Result, error) {
		return p.cpnn(qs[i], c, o, sc)
	})
}

// cpnn is the CPNN body, shared by the single-query entry points (sc == nil
// unless the caller owns a Scratch) and the batch path (sc is a pooled
// scratch; see queryScratch for the derivation-mode rules). Inputs are
// already validated and opt already defaulted.
func (p *pipeline[Q]) cpnn(q Q, c verify.Constraint, opt Options, sc *queryScratch) (*Result, error) {
	res := &Result{}
	cands, table, err := p.prepare(q, opt.Bins, opt.Strategy != Basic, sc, &res.Stats)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return res, nil
	}
	if opt.Strategy == Basic {
		return cpnnBasic(cands, c, opt, res)
	}
	return finishVerifyRefine(table, c, opt, res)
}

// PNN computes the exact qualification probability of every candidate — the
// unconstrained query of the paper's Fig. 2 — sorted by descending
// probability. It integrates every candidate exactly, with no verification
// pass, whose bounds a PNN would discard anyway.
func (p *pipeline[Q]) PNN(q Q, opt Options) ([]Probability, Stats, error) {
	return p.PNNScratch(q, opt, nil)
}

// PNNScratch is PNN evaluated on a caller-owned scratch, under CPNNScratch's
// rules: the returned probabilities never alias scratch memory, and a nil
// scratch is plain PNN.
func (p *pipeline[Q]) PNNScratch(q Q, opt Options, sc *Scratch) ([]Probability, Stats, error) {
	opt = opt.withDefaults()
	var st Stats
	if err := p.src.check(q); err != nil {
		return nil, st, err
	}
	_, table, err := p.prepare(q, opt.Bins, true, sc.query(), &st)
	if err != nil || table == nil {
		return nil, st, err
	}
	out, err := exactAll(table, opt.GLNodes, &st)
	return out, st, err
}

// prepare runs the phases every stateless query starts with: filter, derive
// and — unless the strategy integrates candidates directly — the subregion
// table, with phase timings (the table's own inside InitTime) and set sizes
// recorded in st. An empty candidate set returns nil candidates and a nil
// table.
func (p *pipeline[Q]) prepare(q Q, bins int, buildTable bool, sc *queryScratch, st *Stats) ([]subregion.Candidate, *subregion.Table, error) {
	start := time.Now()
	pos, fMin := p.src.candidates(q)
	st.FilterTime = time.Since(start)
	st.Candidates = len(pos)
	st.FMin = fMin
	if len(pos) == 0 {
		return nil, nil, nil
	}

	start = time.Now()
	sc.resetArena()
	cands, err := p.derive(sc, pos, q, bins)
	if err != nil {
		return nil, nil, err
	}
	sc.keepCandBuf(cands)
	var table *subregion.Table
	if buildTable {
		derived := time.Now()
		if table, err = sc.buildTable(cands); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		st.Subregions = table.NumSubregions()
		st.TableTime = time.Since(derived)
	}
	st.InitTime = time.Since(start)
	return cands, table, nil
}

// derive derives the distance pdf of every filtered position through the
// shared derivation stage (parallel folds; the 1-D source memoizes
// discretization). sc, when non-nil, supplies the recycled candidate buffer
// and fold arena; see queryScratch for when derivation stays in-line versus
// fanning out.
func (p *pipeline[Q]) derive(sc *queryScratch, pos []int, q Q, bins int) ([]subregion.Candidate, error) {
	a := sc.foldArena()
	return p.dv.deriveSet(sc.candBuf(), len(pos), sc.serialDerive(), func(i int) (subregion.Candidate, error) {
		id := p.src.id(pos[i])
		h, err := p.src.dist(pos[i], q, bins, a)
		if err != nil {
			return subregion.Candidate{}, fmt.Errorf("core: object %d: %w", id, err)
		}
		return subregion.Candidate{ID: id, Dist: h}, nil
	})
}
