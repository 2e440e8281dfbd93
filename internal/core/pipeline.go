package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/subregion"
	"repro/internal/verify"
)

// source is everything the pipeline needs to know about a dataset: how to
// reject a bad query point, which objects survive the filter at depth k (as
// hits appended to buf, with the filtering bound f_k, the k-th smallest far
// point: f_min at k = 1), the external ID of a hit, and the distance pdf of
// the object a hit names from the query point. A hit's ID is a position in
// the source's own numbering; the 1-D source's hits also carry the region
// the filter tested, from which it folds a uniform object without loading
// the object or its pdf. The candidate order must be a function of the
// query alone; answers are listed by ID whatever it is (the table's IDRank,
// cpnnBasic's ranks). The 1-D source lists dense IDs ascending, which makes
// both of those O(n); the 2-D source lists R-tree order, which the Basic
// baseline's recorded products were computed in.
// Past derivation every stage works on distance distributions alone, which
// is why one pipeline serves any dimension (the paper's §IV-A note).
//
// It is consulted once per query (check, candidates) and once per candidate
// (id, dist) — never from inside a fold, a verifier or a refinement loop.
type source[Q any] interface {
	check(q Q) error
	candidates(q Q, k int, buf []filter.Hit) (hits []filter.Hit, cut float64)
	id(h filter.Hit) int
	dist(h filter.Hit, q Q, bins int, a *pdf.Alloc) (*pdf.Histogram, error)
}

// pipeline is the paper's evaluation sequence — filter, derive, subregion
// table, verify, refine — over a source. Engine and Engine2D embed it, so
// every stateless entry point has this one body, run in-line on one
// scratch borrowed from core's pool.
type pipeline[Q any] struct {
	src source[Q]
}

// CPNN evaluates a constrained probabilistic nearest-neighbor query at point
// q under the given constraint and options. The result never aliases the
// scratch the query ran on.
func (p *pipeline[Q]) CPNN(q Q, c verify.Constraint, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.src.check(q); err != nil {
		return nil, err
	}
	qs := borrow()
	defer qs.park()
	return p.cpnn(q, c, opt.withDefaults(), qs)
}

// cpnn is the CPNN body on a borrowed scratch. Inputs are already
// validated and opt already defaulted.
func (p *pipeline[Q]) cpnn(q Q, c verify.Constraint, opt Options, sc *queryScratch) (*Result, error) {
	res := &Result{}
	cands, table, err := p.prepare(q, 1, opt.Bins, opt.Strategy != Basic, sc, &res.Stats)
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
// probability. It integrates every candidate exactly in one pass, with no
// verification pass, whose bounds a PNN would discard anyway.
func (p *pipeline[Q]) PNN(q Q, opt Options) ([]Probability, Stats, error) {
	opt = opt.withDefaults()
	var st Stats
	if err := p.src.check(q); err != nil {
		return nil, st, err
	}
	qs := borrow()
	defer qs.park()
	_, table, err := p.prepare(q, 1, opt.Bins, true, qs, &st)
	if err != nil || table == nil {
		return nil, st, err
	}
	out, err := exactAll(table, &st)
	return out, st, err
}

// prepare runs the phases every stateless query starts with: filter and
// derive at depth k (1 for C-PNN and PNN, the neighbor count for k-NN) and —
// unless the strategy integrates candidates directly — the subregion table
// cut for k, built in place over the scratch's — the filter's hits land on
// the scratch too — with phase timings (the table's own inside InitTime)
// and set sizes recorded in st. An empty candidate set returns nil
// candidates and a nil table.
func (p *pipeline[Q]) prepare(q Q, k, bins int, buildTable bool, sc *queryScratch, st *Stats) ([]subregion.Candidate, *subregion.Table, error) {
	start := time.Now()
	hits, cut := p.src.candidates(q, k, sc.hits[:0])
	sc.hits = hits
	st.FilterTime = time.Since(start)
	st.Candidates = len(hits)
	st.FMin = cut
	if len(hits) == 0 {
		return nil, nil, nil
	}

	start = time.Now()
	cands, err := p.derive(sc, hits, q, bins)
	if err != nil {
		return nil, nil, err
	}
	var table *subregion.Table
	if buildTable {
		derived := time.Now()
		if err := sc.table.Rebuild(cands, k); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		table = &sc.table
		st.Subregions = table.NumSubregions()
		st.TableTime = time.Since(derived)
	}
	st.InitTime = time.Since(start)
	return cands, table, nil
}

// derive derives the distance pdf of every hit, in order and in-line, into
// the scratch's candidate buffer and fold arena (the 1-D source folds a
// uniform hit from its region and memoizes discretization). The first
// failing candidate stops the derivation and names itself in the error.
func (p *pipeline[Q]) derive(sc *queryScratch, hits []filter.Hit, q Q, bins int) ([]subregion.Candidate, error) {
	sc.arena.Reset()
	cands := slices.Grow(sc.cands[:0], len(hits))
	for _, hit := range hits {
		id := p.src.id(hit)
		h, err := p.src.dist(hit, q, bins, &sc.arena)
		if err != nil {
			return nil, fmt.Errorf("core: object %d: %w", id, err)
		}
		cands = append(cands, subregion.Candidate{ID: id, Dist: h})
	}
	sc.cands = cands
	return cands, nil
}
