// Package subregion builds the subregion decomposition at the core of the
// paper's verifiers (§IV-A, Fig. 7).
//
// Given the candidate set of a query — each candidate represented by its
// distance pdf — the space of distances is partitioned at "end-points": every
// candidate's near point, every point where a distance pdf changes value
// (histogram bin edges) below f_min, plus f_min and f_max. Adjacent
// end-points delimit subregions S_1..S_M; the rightmost subregion
// S_M = [f_min, f_max] is never subdivided because no object located beyond
// f_min can be the nearest neighbor.
//
// For every candidate X_i and subregion S_j the table records the subregion
// probability s_ij = Pr(R_i ∈ S_j) and the distance cdf D_i(e_j) at the
// subregion's lower end-point — exactly the number pairs of Fig. 7(b) — plus
// the exclusive products Π_{k≠i}(1 − D_k(e_j)) that Lemma 2 and Eq. 11
// consume.
package subregion

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/pdf"
)

// Candidate pairs a dataset object ID with its distance pdf for the current
// query point.
type Candidate struct {
	// ID is the object's dataset ID.
	ID int
	// Dist is the pdf of the object's distance from the query point.
	Dist *pdf.Histogram
}

// Table is the subregion decomposition of one query's candidate set.
//
// Candidates are sorted by ascending near point and addressed by a local
// index 0..NumCandidates()-1 (the paper's X_1..X_|C| renaming); IDs maps back
// to dataset IDs. End-points are Ends[0..M]; subregion j (0-based) spans
// [Ends[j], Ends[j+1]] and the rightmost subregion has index M-1.
type Table struct {
	ids   []int
	dists []*pdf.Histogram
	ends  []float64
	m     int // number of subregions

	fMin, fMax float64

	s    []float64 // |C| × M subregion probabilities, row-major
	d    []float64 // |C| × (M+1) distance cdf at each end-point, row-major
	excl []float64 // |C| × (M+1) Π_{k≠i}(1−D_k(e_j)), row-major
	y    []float64 // M+1 full products Π_k (1−D_k(e_j))
	c    []int     // M per-subregion counts of candidates with s_ij > 0

	// Scratch reused across Rebuild/Patch calls; never escapes the table.
	order    []rankKey
	pts      []float64
	pre, suf []float64
	patchBuf []Candidate
}

// MemBytes returns the approximate heap footprint of the table's matrices
// and scratch. Long-lived caches that retain tables across evaluations (the
// monitor's per-query state) use it for accounting against their memory cap.
func (t *Table) MemBytes() int {
	words := cap(t.ends) + cap(t.s) + cap(t.d) + cap(t.excl) + cap(t.y) +
		cap(t.pts) + cap(t.pre) + cap(t.suf) +
		cap(t.ids) + cap(t.dists) + cap(t.c)
	return 8*words + 24*cap(t.order) + 24*cap(t.patchBuf)
}

// DropCandidates clears the table's references to the last candidate set's
// distance pdfs while keeping every float matrix's capacity, so a table
// parked between queries (a pooled or monitor-owned scratch) pins no histogram
// of the query it last served. The table reads as empty until the next
// Rebuild.
func (t *Table) DropCandidates() {
	clear(t.dists)
	clear(t.patchBuf[:cap(t.patchBuf)])
	t.ids, t.dists = t.ids[:0], t.dists[:0]
}

// rankKey is one candidate's sort key in Rebuild: near point, then ID, with
// the candidate's position in the input slice carried along.
type rankKey struct {
	lo  float64
	id  int
	idx int
}

// ErrNoCandidates is returned when a table is built from an empty candidate
// set.
var ErrNoCandidates = errors.New("subregion: empty candidate set")

// Build constructs the subregion table for a candidate set. Candidates whose
// near point lies beyond f_min contribute nothing (their qualification
// probability is zero); Build returns an error for them so that callers
// notice broken filtering instead of silently mis-ranking.
func Build(cands []Candidate) (*Table, error) {
	t := new(Table)
	if err := t.Rebuild(cands); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild constructs the table in place for a new candidate set, reusing the
// table's backing arrays — every stateless query rebuilds the table of the
// scratch it borrowed from core's pool, so per-query matrix allocation (the
// dominant allocation of a C-PNN evaluation) is paid once per scratch, not
// once per query. Any data
// previously read from the table is invalidated. The zero Table is ready for
// Rebuild; the semantics are exactly Build's.
func (t *Table) Rebuild(cands []Candidate) error {
	if len(cands) == 0 {
		return ErrNoCandidates
	}
	t.order = grow(t.order, len(cands))
	for i, c := range cands {
		if c.Dist == nil {
			return fmt.Errorf("subregion: candidate %d has nil distance pdf", c.ID)
		}
		t.order[i] = rankKey{lo: c.Dist.Support().Lo, id: c.ID, idx: i}
	}
	// Near-point ties break by candidate ID so the table — and every
	// float product computed over it, bit for bit — is a pure function of
	// the candidate *set*, independent of input order. The incremental
	// re-verification path (core.CPNNIncremental, Table.Patch) relies on
	// this: patched and rebuilt-from-scratch tables must coincide exactly.
	slices.SortFunc(t.order, func(a, b rankKey) int {
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return cmp.Compare(a.id, b.id)
	})
	t.ids = grow(t.ids, len(cands))
	t.dists = grow(t.dists, len(cands))
	t.fMin = math.Inf(1)
	t.fMax = math.Inf(-1)
	for rank, k := range t.order {
		c := cands[k.idx]
		t.ids[rank] = c.ID
		t.dists[rank] = c.Dist
		hi := c.Dist.Support().Hi
		t.fMin = math.Min(t.fMin, hi)
		t.fMax = math.Max(t.fMax, hi)
	}
	for i, dh := range t.dists {
		if dh.Support().Lo > t.fMin {
			return fmt.Errorf(
				"subregion: candidate %d has near point %g beyond f_min %g; filtering should have pruned it",
				t.ids[i], dh.Support().Lo, t.fMin)
		}
	}

	t.buildEndpoints()
	t.m = len(t.ends) - 1
	t.fillMatrices()
	return nil
}

// buildEndpoints assembles the sorted, deduplicated end-point list: near
// points, distance-pdf breakpoints strictly below f_min, then f_min and
// f_max (paper: "no end points are defined between (e5, e6)").
func (t *Table) buildEndpoints() {
	pts := t.pts[:0]
	for _, dh := range t.dists {
		pts = append(pts, dh.Support().Lo)
		for _, e := range dh.Edges() {
			if e < t.fMin {
				pts = append(pts, e)
			}
		}
	}
	pts = append(pts, t.fMin)
	if t.fMax > t.fMin {
		pts = append(pts, t.fMax)
	} else {
		// All far points coincide: the rightmost subregion degenerates, but
		// the partition still needs at least one subregion; extend by an
		// empty-width guard only when every candidate shares near == far,
		// which cannot happen for valid pdfs, so fMax == fMin simply means
		// a zero-width rightmost region that we merge away by adding a
		// sentinel just above it.
		pts = append(pts, math.Nextafter(t.fMin, math.Inf(1)))
	}
	sort.Float64s(pts)
	t.pts = pts // keep the grown capacity for the next Rebuild
	t.ends = dedupe(pts)
}

// fillMatrices computes, per candidate, the cdf at each end-point by a
// single linear march over the distance histogram, then derives subregion
// probabilities, per-subregion counts and exclusive cdf products.
func (t *Table) fillMatrices() {
	nC := len(t.dists)
	nE := len(t.ends)
	t.d = grow(t.d, nC*nE)
	t.s = grow(t.s, nC*t.m)
	t.excl = grow(t.excl, nC*nE)
	t.y = grow(t.y, nE)
	t.c = grow(t.c, t.m)
	clear(t.c) // c accumulates via ++; every other matrix is fully overwritten

	for i, dh := range t.dists {
		row := t.d[i*nE : (i+1)*nE]
		marchCDF(dh, t.ends, row)
		srow := t.s[i*t.m : (i+1)*t.m]
		for j := 0; j < t.m; j++ {
			v := row[j+1] - row[j]
			if v < 0 {
				v = 0 // rounding guard; cdf is monotone analytically
			}
			srow[j] = v
			if v > 0 {
				t.c[j]++
			}
		}
	}

	// Exclusive products per end-point via prefix/suffix scans, which avoids
	// dividing by potentially zero (1 − D_k) factors. The scans run candidate-
	// major so every access walks the row-major matrices with stride one: the
	// forward pass leaves Π_{k<i}(1−D_k(e_j)) in excl, the backward pass folds
	// in the suffix. The arithmetic (and so the result, bit for bit) is the
	// same as scanning per end-point; only the traversal order differs.
	t.pre = grow(t.pre, nE)
	t.suf = grow(t.suf, nE)
	pre, suf := t.pre, t.suf
	for j := range pre {
		pre[j] = 1
		suf[j] = 1
	}
	for i := 0; i < nC; i++ {
		drow := t.d[i*nE : (i+1)*nE]
		erow := t.excl[i*nE : (i+1)*nE]
		for j, dv := range drow {
			erow[j] = pre[j]
			pre[j] *= 1 - dv
		}
	}
	copy(t.y, pre)
	for i := nC - 1; i >= 0; i-- {
		drow := t.d[i*nE : (i+1)*nE]
		erow := t.excl[i*nE : (i+1)*nE]
		for j, dv := range drow {
			erow[j] *= suf[j]
			suf[j] *= 1 - dv
		}
	}
}

// marchCDF writes cdf values of dh at every point of the ascending slice
// ends into out, in O(len(ends) + bins) time.
func marchCDF(dh *pdf.Histogram, ends []float64, out []float64) {
	edges := dh.Edges()
	nBins := dh.NumBins()
	bin := 0
	cum := 0.0
	for j, e := range ends {
		for bin < nBins && edges[bin+1] <= e {
			cum += dh.BinMass(bin)
			bin++
		}
		switch {
		case e <= edges[0]:
			out[j] = 0
		case bin >= nBins:
			out[j] = 1
		default:
			out[j] = cum + dh.BinDensity(bin)*(e-edges[bin])
		}
	}
}

// Patch applies a single-candidate edit to the table's candidate set and
// rebuilds it in place, reusing all matrix storage: a non-nil upsert replaces
// the candidate with the same ID (or inserts it), and evict removes the
// candidate with that ID (pass a negative evict for none). It is the
// incremental re-verification path's table maintenance primitive — a commit
// that re-derived k folds patches them in one at a time instead of
// reassembling the candidate slice — and is exactly equivalent to Rebuild on
// the edited candidate set (FuzzIncrementalPatch pins this). Evicting the
// last candidate returns ErrNoCandidates and leaves the table unchanged.
func (t *Table) Patch(upsert *Candidate, evict int) error {
	cands := t.patchBuf[:0]
	replaced := false
	for i, id := range t.ids {
		if evict >= 0 && id == evict {
			continue
		}
		if upsert != nil && id == upsert.ID {
			cands = append(cands, *upsert)
			replaced = true
			continue
		}
		cands = append(cands, Candidate{ID: id, Dist: t.dists[i]})
	}
	if upsert != nil && !replaced {
		cands = append(cands, *upsert)
	}
	t.patchBuf = cands[:0] // keep the grown capacity across patches
	if len(cands) == 0 {
		return ErrNoCandidates
	}
	return t.Rebuild(cands)
}

// NumCandidates returns |C|, the candidate-set size.
func (t *Table) NumCandidates() int { return len(t.ids) }

// NumSubregions returns M, the subregion count (including the rightmost).
func (t *Table) NumSubregions() int { return t.m }

// IDs returns the dataset IDs in near-point order; callers must not mutate.
func (t *Table) IDs() []int { return t.ids }

// Dist returns candidate i's distance pdf.
func (t *Table) Dist(i int) *pdf.Histogram { return t.dists[i] }

// Endpoints returns the end-point slice e_1..e_{M+1} (len M+1); callers must
// not mutate it.
func (t *Table) Endpoints() []float64 { return t.ends }

// FMin returns the minimum far point of the candidate set.
func (t *Table) FMin() float64 { return t.fMin }

// FMax returns the maximum far point of the candidate set.
func (t *Table) FMax() float64 { return t.fMax }

// S returns the subregion probability s_ij for candidate i in subregion j.
func (t *Table) S(i, j int) float64 { return t.s[i*t.m+j] }

// D returns the distance cdf D_i evaluated at end-point j (0 <= j <= M).
func (t *Table) D(i, j int) float64 { return t.d[i*len(t.ends)+j] }

// Excl returns Π_{k≠i} (1 − D_k(e_j)), the probability that every other
// candidate's distance is at least e_j.
func (t *Table) Excl(i, j int) float64 { return t.excl[i*len(t.ends)+j] }

// Y returns the full product Π_k (1 − D_k(e_j)) of Eq. 2.
func (t *Table) Y(j int) float64 { return t.y[j] }

// Count returns c_j, the number of candidates with non-zero subregion
// probability in subregion j.
func (t *Table) Count(j int) int { return t.c[j] }

// RightmostMass returns s_iM, candidate i's probability of falling in the
// rightmost subregion — the quantity the RS verifier subtracts from one.
func (t *Table) RightmostMass(i int) float64 { return t.S(i, t.m-1) }

func dedupe(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// grow returns a slice of length n, reusing s's backing array when its
// capacity suffices. Contents are unspecified; callers overwrite every
// element (or clear explicitly).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
