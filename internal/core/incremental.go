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

// This file is the incremental re-evaluation entry point of the engine: the
// same filter → derive → verify pipeline as CPNN/PNN/CKNN, but run against a
// persistent per-query EvalState so a commit that changes k objects costs
// O(k) fold derivations instead of O(|C|). The continuous-monitoring layer
// (internal/monitor) keeps one EvalState per standing query and feeds each
// re-evaluation the set of stable IDs the triggering commits actually
// changed.
//
// Every evaluation filters exactly as a stateless query does — f_min (f_k)
// and the candidate set over the index — and only then consults the state.
// Two paths apply, in order:
//
//  1. Early exit — when the recomputed critical distance equals the cached
//     one and no changed object is in either the cached or the fresh
//     candidate set, the previous answer is provably byte-identical; nothing
//     is derived and no verifier runs.
//  2. Fold-cache rebuild — otherwise the candidate set is re-assembled
//     reusing every unchanged candidate's cached distance pdf, deriving only
//     changed ones, on a scratch borrowed from core's pool like any
//     stateless query's; the table is rebuilt once on that scratch, the
//     answer finished over it, and the scratch parked.
//
// Both produce answers bit-identical to a from-scratch evaluation against
// the same view: folds are deterministic functions of (pdf, q) (proven
// arena==heap by FuzzFold), the table is a pure function of the candidate
// set regardless of input order or of what the storage held before (ID
// tie-break in Rebuild, proven by FuzzBuild), and verification/refinement
// are deterministic over the table.

// cachedFold is one retained candidate derivation: the object's discretized
// distance pdf for the state's query point, heap-allocated so it survives
// arena resets, and the evaluation generation that last used it.
type cachedFold struct {
	h   *pdf.Histogram
	gen uint64
}

// foldEntryOverhead approximates the map-entry plus struct overhead of one
// cached fold, for memory accounting.
const foldEntryOverhead = 64

// EvalState is the persistent evaluation state of one standing query: what
// its next evaluation reads back. That is the last candidate set with each
// candidate's derived distance pdf (keyed by stable ID) and the last critical
// distance. The filter is not cached: each evaluation filters over the index
// like a stateless query, and rebuilds the subregion table from the folds on
// a pooled scratch. A state is owned by a single query — evaluations against
// different query points or specs must not share one — and is not safe for
// concurrent use.
//
// The zero value is not ready; use NewEvalState.
type EvalState struct {
	valid bool    // the cache reflects a completed evaluation
	fmin  float64 // critical distance (f_min / f_k) at that evaluation
	gen   uint64  // bumped per evaluation; entries off-generation are evicted

	folds     map[uint64]*cachedFold
	foldBytes int
}

// NewEvalState returns an empty evaluation state.
func NewEvalState() *EvalState {
	return &EvalState{folds: map[uint64]*cachedFold{}}
}

// Valid reports whether the state reflects a completed evaluation and may be
// reused. An invalid state is still usable — the next evaluation re-derives
// everything and re-validates it.
func (st *EvalState) Valid() bool { return st.valid }

// Invalidate marks the state stale: the next evaluation ignores every cached
// fold. Callers must invalidate whenever they can no longer enumerate the
// objects changed since the state's last evaluation (feed gaps, truncations,
// errors).
func (st *EvalState) Invalidate() { st.valid = false }

// MemBytes returns the approximate heap footprint of the state's cached
// folds. The monitor accounts this against its configured state-cache cap.
func (st *EvalState) MemBytes() int {
	return st.foldBytes + len(st.folds)*foldEntryOverhead
}

// clear resets the state to a valid empty candidate set at critical distance
// fmin (the outcome of evaluating over an empty or fully-pruned dataset).
func (st *EvalState) clear(fmin float64) {
	for s, cf := range st.folds {
		st.foldBytes -= cf.h.MemBytes()
		delete(st.folds, s)
	}
	st.foldBytes = 0
	st.fmin = fmin
	st.valid = true
}

// IncrementalStats reports what an incremental evaluation actually did.
type IncrementalStats struct {
	// Skipped reports the early exit: the previous answer is provably
	// unchanged and no result was produced.
	Skipped bool
	// Reused counts candidates whose cached distance pdf was kept; Derived
	// counts fold derivations actually performed.
	Reused, Derived int
}

// beginIncremental validates what every incremental call shares — a finite
// query point, a NewEvalState state, an ID map covering the dataset — and
// only then resolves a nil changed set ("anything may have changed") into an
// invalidated state and an empty set.
func (e *Engine) beginIncremental(q float64, st *EvalState, ids []uint64, changed map[uint64]int) (map[uint64]int, error) {
	if err := checkQuery(q); err != nil {
		return nil, err
	}
	if st == nil || st.folds == nil {
		return nil, fmt.Errorf("core: incremental evaluation requires a NewEvalState state")
	}
	if len(ids) != e.ds.Len() {
		return nil, fmt.Errorf("core: IDs maps %d objects, dataset holds %d", len(ids), e.ds.Len())
	}
	if changed == nil {
		st.Invalidate()
		changed = map[uint64]int{}
	}
	return changed, nil
}

// skipCheck reports whether the previous answer is provably unchanged: the
// critical distance is bit-equal and no changed object is among the fresh
// hits (dense IDs) or was in the cached candidate set (stable IDs).
// Unchanged objects keep their exact distances, so under these conditions
// the two candidate sets — and every fold over them — coincide exactly.
func (st *EvalState) skipCheck(fmin float64, hits []filter.Hit, ids []uint64, changed map[uint64]int) bool {
	if !st.valid || fmin != st.fmin {
		return false
	}
	for _, h := range hits {
		if _, ok := changed[ids[h.ID]]; ok {
			return false
		}
	}
	for s := range changed {
		if _, ok := st.folds[s]; ok {
			return false
		}
	}
	return true
}

// cacheFold derives the distance pdf of the hit's object (stable ID s) as a
// stateless query does — a uniform object straight from the hit's region —
// and installs it in the state's fold cache under the current generation.
// The fold lives on the heap — cached folds outlive any arena reset, so the
// arena is never used here. A failed derivation invalidates the state.
func (e *Engine) cacheFold(q float64, bins int, st *EvalState, s uint64, hit filter.Hit, inc *IncrementalStats) (*cachedFold, error) {
	h, err := e.dist(hit, q, bins, nil)
	if err != nil {
		st.Invalidate()
		return nil, err
	}
	cf := st.folds[s]
	if cf == nil {
		cf = &cachedFold{}
		st.folds[s] = cf
	} else {
		st.foldBytes -= cf.h.MemBytes()
	}
	cf.h, cf.gen = h, st.gen
	st.foldBytes += h.MemBytes()
	inc.Derived++
	return cf, nil
}

// incrementalPrepare runs the filter and derivation phases of an incremental
// evaluation at filter depth k (1 for CPNN/PNN, the neighbor count for
// k-NN): the stateless pipeline's filter into a scratch borrowed from core's
// pool, the early-exit check, then fold-cache assembly and the table rebuilt
// on that scratch. It returns the scratch, holding the prepared candidate
// set and its table, and the caller parks it once the answer is collected.
// It returns no scratch on an error, on inc.Skipped (the caller reuses its
// previous answer) and when stats.Candidates == 0 (the answer is empty).
// Filter, init and table timings, set sizes and the critical distance land
// in stats.
func (e *Engine) incrementalPrepare(q float64, bins, k int, st *EvalState, ids []uint64, changed map[uint64]int, inc *IncrementalStats, stats *Stats) (*queryScratch, error) {
	start := time.Now()
	sc := borrow()
	hits, cut := e.candidates(q, k, sc.hits[:0])
	sc.hits = hits
	stats.FilterTime = time.Since(start)
	stats.Candidates = len(hits)
	stats.FMin = cut

	if st.skipCheck(cut, hits, ids, changed) {
		inc.Skipped = true
		sc.park()
		return nil, nil
	}
	if len(hits) == 0 {
		st.clear(cut)
		sc.park()
		return nil, nil
	}

	start = time.Now()
	st.gen++
	gen := st.gen
	// Assemble the candidate set in filter order: an unchanged candidate
	// keeps its cached fold (marked with this generation), every other one is
	// derived. Folds left off-generation have departed and are evicted; the
	// table is then rebuilt once on the scratch.
	cands := slices.Grow(sc.cands[:0], len(hits))
	for _, h := range hits {
		s := ids[h.ID]
		cf := st.folds[s]
		if _, isChanged := changed[s]; cf != nil && st.valid && !isChanged {
			cf.gen = gen
			inc.Reused++
		} else {
			var err error
			if cf, err = e.cacheFold(q, bins, st, s, h, inc); err != nil {
				sc.park()
				return nil, err
			}
		}
		cands = append(cands, subregion.Candidate{ID: h.ID, Dist: cf.h})
	}
	sc.cands = cands
	for s, cf := range st.folds {
		if cf.gen != gen {
			st.foldBytes -= cf.h.MemBytes()
			delete(st.folds, s)
		}
	}
	derived := time.Now()
	if err := sc.table.Rebuild(cands, k); err != nil {
		st.Invalidate()
		sc.park()
		return nil, fmt.Errorf("core: %w", err)
	}
	stats.Subregions = sc.table.NumSubregions()
	stats.TableTime = time.Since(derived)
	st.fmin = cut
	st.valid = true
	stats.InitTime = time.Since(start)
	return sc, nil
}

// CPNNIncremental evaluates a constrained probabilistic nearest-neighbor
// query against the engine's view, reusing the per-query state from the
// previous evaluation. ids maps dense dataset IDs to stable external IDs
// (length Dataset().Len()); changed's keys are the stable IDs of every
// object modified since the state's last evaluation, and its values are not
// read — pass nil to force a full re-derivation. The result is bit-identical to CPNN on the same view; on
// IncrementalStats.Skipped the result is nil and the caller's previous
// answer stands unchanged. A standing query runs the paper's method only:
// any opt.Strategy other than VR is an error.
func (e *Engine) CPNNIncremental(q float64, c verify.Constraint, opt Options, st *EvalState, ids []uint64, changed map[uint64]int) (*Result, IncrementalStats, error) {
	var inc IncrementalStats
	if opt.Strategy != VR {
		return nil, inc, fmt.Errorf("core: incremental evaluation runs VR only, not %v", opt.Strategy)
	}
	if err := c.Validate(); err != nil {
		return nil, inc, err
	}
	changed, err := e.beginIncremental(q, st, ids, changed)
	if err != nil {
		return nil, inc, err
	}
	opt = opt.withDefaults()
	res := &Result{}
	sc, err := e.incrementalPrepare(q, opt.Bins, 1, st, ids, changed, &inc, &res.Stats)
	if err != nil || inc.Skipped {
		return nil, inc, err
	}
	if sc == nil {
		return res, inc, nil
	}
	defer sc.park()
	res, err = finishVerifyRefine(&sc.table, c, opt, res)
	return res, inc, err
}

// PNNIncremental is the incremental form of PNN; see CPNNIncremental for the
// state/ids/changed contract. On Skipped the probability slice is nil and the
// previous answer stands.
func (e *Engine) PNNIncremental(q float64, opt Options, st *EvalState, ids []uint64, changed map[uint64]int) ([]Probability, Stats, IncrementalStats, error) {
	var inc IncrementalStats
	var stats Stats
	changed, err := e.beginIncremental(q, st, ids, changed)
	if err != nil {
		return nil, stats, inc, err
	}
	opt = opt.withDefaults()
	sc, err := e.incrementalPrepare(q, opt.Bins, 1, st, ids, changed, &inc, &stats)
	if sc == nil {
		return nil, stats, inc, err
	}
	defer sc.park()
	out, err := exactAll(&sc.table, &stats)
	return out, stats, inc, err
}

// KNNIncremental is the incremental form of CKNN; see CPNNIncremental for
// the state/ids/changed contract. Its table, cut at f_k, is rebuilt like a
// C-PNN's, so the answers are bit-identical to CKNN on the same view. On
// Skipped the answer slice is nil and the previous answer stands.
func (e *Engine) KNNIncremental(q float64, c verify.Constraint, opt KNNOptions, st *EvalState, ids []uint64, changed map[uint64]int) ([]KNNAnswer, Stats, IncrementalStats, error) {
	var inc IncrementalStats
	var stats Stats
	k, err := e.knnBegin(q, c, &opt)
	if err != nil {
		return nil, stats, inc, err
	}
	if changed, err = e.beginIncremental(q, st, ids, changed); err != nil {
		return nil, stats, inc, err
	}
	if k == 0 {
		st.clear(0)
		return nil, stats, inc, nil
	}
	if k == e.ds.Len() {
		// Every object is certain and no fold is derived, so there is
		// nothing to cache: the next evaluation re-derives from scratch.
		st.Invalidate()
		return e.knnCertain(q, k, c, &stats), stats, inc, nil
	}
	sc, err := e.incrementalPrepare(q, opt.Bins, k, st, ids, changed, &inc, &stats)
	if sc == nil {
		return nil, stats, inc, err
	}
	defer sc.park()
	out, err := knnClassify(&sc.table, c, &stats)
	return out, stats, inc, err
}
