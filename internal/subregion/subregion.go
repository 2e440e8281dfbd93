// Package subregion builds the subregion decomposition at the core of the
// paper's verifiers (§IV-A, Fig. 7).
//
// Given the candidate set of a query — each candidate represented by its
// distance pdf — the space of distances is partitioned at "end-points": every
// candidate's near point, every point where a distance pdf changes value
// (histogram bin edges) below the cut, plus the cut and f_max. Adjacent
// end-points delimit subregions S_1..S_M; the rightmost subregion
// S_M = [cut, f_max] is never subdivided. A table is built for a neighbor
// count k, and its cut is f_k, the k-th smallest far point: an object
// located beyond f_k has k objects certainly closer, so it is not among the
// k nearest. At k = 1 the cut is the paper's f_min.
//
// For every candidate X_i and subregion S_j the table records the subregion
// probability s_ij = Pr(R_i ∈ S_j) and the distance cdf D_i(e_j) at the
// subregion's lower end-point — exactly the number pairs of Fig. 7(b) — plus
// the exclusive products Π_{k≠i}(1 − D_k(e_j)) that Lemma 2 and Eq. 11
// consume.
//
// As in §IV-A, the candidates are numbered X_1..X_|C| by near point once and
// the end-points sorted once: the rows' near points already ascend, so only
// the break points are sorted before the two lists are merged. Each row also
// knows its rank by ID (Table.IDRank), so a caller lists per-candidate
// results by ID without sorting them again.
package subregion

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
// Candidates are sorted by ascending near point, ties by ID, and addressed by
// a local index 0..NumCandidates()-1 (the paper's X_1..X_|C| renaming); IDs
// maps back to dataset IDs and IDRank to each row's place in ID order, so a
// caller lists per-candidate results by ID without sorting them. End-points
// are Ends[0..M]; subregion j (0-based) spans [Ends[j], Ends[j+1]] and the
// rightmost subregion has index M-1.
type Table struct {
	ids   []int
	dists []*pdf.Histogram
	rank  []int // rank[i] is row i's position in ascending ID order
	ends  []float64
	m     int // number of subregions

	k    int     // neighbor count the cut is placed for
	cut  float64 // f_k, the k-th smallest far point
	fMax float64

	s    []float64 // |C| × M subregion probabilities, row-major
	d    []float64 // |C| × (M+1) distance cdf at each end-point, row-major
	excl []float64 // |C| × (M+1) Π_{k≠i}(1−D_k(e_j)), row-major
	y    []float64 // M+1 full products Π_k (1−D_k(e_j))
	c    []int     // M per-subregion counts of candidates with s_ij > 0

	// Scratch reused across Rebuild calls; never escapes the table. pts
	// holds the sorted break points the end-points are merged from; ends
	// has a backing array of its own, the merge's output.
	order    []rankKey
	pts      []float64
	pre, suf []float64
}

// MemBytes returns the approximate heap footprint of the table's matrices
// and scratch. A pool that keeps tables between queries (core's scratch
// pool) uses it to hold what an idle table retains to a cap.
func (t *Table) MemBytes() int {
	words := cap(t.ends) + cap(t.s) + cap(t.d) + cap(t.excl) + cap(t.y) +
		cap(t.pts) + cap(t.pre) + cap(t.suf) +
		cap(t.ids) + cap(t.rank) + cap(t.dists) + cap(t.c)
	return 8*words + 32*cap(t.order)
}

// DropCandidates clears the table's references to the last candidate set's
// distance pdfs while keeping every float matrix's capacity, so a table
// parked between queries (on a pooled scratch) pins no histogram of the query
// it last served. The table reads as empty until the next Rebuild.
func (t *Table) DropCandidates() {
	clear(t.dists)
	t.ids, t.dists, t.rank = t.ids[:0], t.dists[:0], t.rank[:0]
}

// rankKey is one candidate's sort key in Rebuild: near point and ID, with the
// candidate's position in the input slice and its rank by ID carried along.
type rankKey struct {
	lo     float64
	id     int
	idx    int
	idRank int
}

// ErrNoCandidates is returned when a table is built from an empty candidate
// set.
var ErrNoCandidates = errors.New("subregion: empty candidate set")

// Build constructs the subregion table of a nearest-neighbor query (k = 1)
// for a candidate set; see Rebuild.
func Build(cands []Candidate) (*Table, error) {
	t := new(Table)
	if err := t.Rebuild(cands, 1); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild constructs the table in place for a new candidate set, reusing the
// table's backing arrays — every query, stateless or standing, rebuilds the
// table of the scratch it borrowed from core's pool, so per-query matrix
// allocation (the dominant allocation of a C-PNN evaluation) is paid once
// per scratch, not once per query. Any data previously read from the table
// is invalidated. The zero Table is ready for Rebuild.
//
// Rows are ordered by near point, ties by ID, for any input order — so the
// table, and every float product computed over it, bit for bit, is a pure
// function of the candidate set — in two stable passes: by ID, which costs
// O(n) on the ID-ascending input every core source gives and fixes each
// row's IDRank, then a stable sort by near point.
//
// The cut is placed for k nearest neighbors (k >= 1): at the k-th smallest
// far point of the candidates, or at the largest when there are fewer than
// k. Candidates whose near point lies beyond the cut cannot be among the k
// nearest; Rebuild returns an error for them so that callers notice broken
// filtering instead of silently mis-ranking.
func (t *Table) Rebuild(cands []Candidate, k int) error {
	if len(cands) == 0 {
		return ErrNoCandidates
	}
	if k < 1 {
		return fmt.Errorf("subregion: k = %d < 1", k)
	}
	t.order = grow(t.order, len(cands))
	for i, c := range cands {
		if c.Dist == nil {
			return fmt.Errorf("subregion: candidate %d has nil distance pdf", c.ID)
		}
		t.order[i] = rankKey{lo: c.Dist.Support().Lo, id: c.ID, idx: i}
	}
	// Near-point ties break by candidate ID, which the stable pass keeps
	// from the ID pass. The incremental re-verification path
	// (core.CPNNIncremental) relies on the order being a function of the
	// set: it assembles candidates in filter order, which need not be the
	// order a from-scratch evaluation derives them in, and the two tables
	// must coincide exactly.
	slices.SortFunc(t.order, func(a, b rankKey) int { return cmp.Compare(a.id, b.id) })
	for r := range t.order {
		t.order[r].idRank = r
	}
	slices.SortStableFunc(t.order, func(a, b rankKey) int { return cmp.Compare(a.lo, b.lo) })
	t.ids = grow(t.ids, len(cands))
	t.dists = grow(t.dists, len(cands))
	t.rank = grow(t.rank, len(cands))
	t.k = k
	t.cut = math.Inf(1)
	t.fMax = math.Inf(-1)
	for row, key := range t.order {
		c := cands[key.idx]
		t.ids[row] = c.ID
		t.dists[row] = c.Dist
		t.rank[row] = key.idRank
		hi := c.Dist.Support().Hi
		t.cut = math.Min(t.cut, hi)
		t.fMax = math.Max(t.fMax, hi)
	}
	if k > 1 {
		// buildEndpoints refills pts, so it can hold the far points meanwhile.
		fars := t.pts[:0]
		for _, dh := range t.dists {
			fars = append(fars, dh.Support().Hi)
		}
		slices.Sort(fars)
		t.cut = fars[min(k, len(fars))-1]
		t.pts = fars
	}
	for i, dh := range t.dists {
		if dh.Support().Lo > t.cut {
			return fmt.Errorf(
				"subregion: candidate %d has near point %g beyond the cut %g; filtering should have pruned it",
				t.ids[i], dh.Support().Lo, t.cut)
		}
	}

	t.buildEndpoints()
	t.m = len(t.ends) - 1
	t.fillMatrices()
	return nil
}

// buildEndpoints assembles the sorted, deduplicated end-point list: near
// points, distance-pdf breakpoints strictly below the cut, then the cut and
// f_max (paper: "no end points are defined between (e5, e6)"). The near
// points come off the rows already ascending, so only the break points are
// sorted, and the two lists are merged.
func (t *Table) buildEndpoints() {
	// A histogram's first edge is its near point; the rest ascend, so the
	// scan stops at the first one at or past the cut.
	pts := t.pts[:0]
	for _, dh := range t.dists {
		for _, e := range dh.Edges()[1:] {
			if e >= t.cut {
				break
			}
			pts = append(pts, e)
		}
	}
	slices.Sort(pts)
	t.pts = pts // keep the grown capacity for the next Rebuild

	ends := t.ends[:0]
	j := 0
	for _, dh := range t.dists {
		lo := dh.Support().Lo
		for j < len(pts) && pts[j] < lo {
			ends = appendNew(ends, pts[j])
			j++
		}
		ends = appendNew(ends, lo)
	}
	for _, e := range pts[j:] {
		ends = appendNew(ends, e)
	}
	ends = appendNew(ends, t.cut)
	if t.fMax > t.cut {
		ends = append(ends, t.fMax)
	} else {
		// All far points coincide: the rightmost subregion degenerates, but
		// the partition still needs at least one subregion; extend by an
		// empty-width guard only when every candidate shares near == far,
		// which cannot happen for valid pdfs, so fMax == cut simply means
		// a zero-width rightmost region that we merge away by adding a
		// sentinel just above it.
		ends = append(ends, math.Nextafter(t.cut, math.Inf(1)))
	}
	t.ends = ends
}

// fillMatrices computes the matrices in two passes over the candidate rows.
// The forward pass walks each row once: a linear march over the row's
// distance histogram yields the cdf at each end-point, and as each value
// lands the subregion probability it closes (with the count c_j), the
// exclusive prefix Π_{k<i}(1−D_k(e_j)) and the running product for the
// next row are written beside it. The backward pass folds the suffix
// Π_{k>i}(1−D_k(e_j)) into excl. Prefix and suffix scans avoid dividing by
// potentially zero (1 − D_k) factors, and every access walks the row-major
// matrices with stride one. Each element gets the same float operations, in
// the same order, as a separate pass per matrix would give it.
func (t *Table) fillMatrices() {
	nC, nE, m := len(t.dists), len(t.ends), t.m
	t.d = grow(t.d, nC*nE)
	t.s = grow(t.s, nC*m)
	t.excl = grow(t.excl, nC*nE)
	t.y = grow(t.y, nE)
	t.c = grow(t.c, m)
	t.pre = grow(t.pre, nE)
	t.suf = grow(t.suf, nE)
	clear(t.c) // c accumulates via ++; every other matrix is fully overwritten
	ends, cnt := t.ends, t.c
	pre, suf := t.pre[:len(ends)], t.suf[:len(ends)]
	for j := range pre {
		pre[j] = 1
		suf[j] = 1
	}

	near := 0 // end-points at or below the current row's near point
	for i, dh := range t.dists {
		drow := t.d[i*nE:][:len(ends)]
		erow := t.excl[i*nE:][:len(ends)]
		srow := t.s[i*m:][:m]
		edges, nBins := dh.Edges(), dh.NumBins()
		// Rows ascend by near point, so the end-points at or below it only
		// grow; ends[0] is the smallest near point, so there is at least
		// one. There the cdf is 0, the subregions closed are empty and the
		// prefix product is multiplied by exactly 1, which leaves it as is.
		for near < len(ends) && ends[near] <= edges[0] {
			near++
		}
		clear(drow[:near])
		clear(srow[:near-1])
		copy(erow[:near], pre)
		bin, cum, prev := 0, 0.0, 0.0
		for j := near; j < len(ends); j++ {
			e := ends[j]
			for bin < nBins && edges[bin+1] <= e {
				cum += dh.BinMass(bin)
				bin++
			}
			dv := 1.0
			if bin < nBins {
				dv = cum + dh.BinDensity(bin)*(e-edges[bin])
			}
			drow[j] = dv
			v := dv - prev
			if v < 0 {
				v = 0 // rounding guard; cdf is monotone analytically
			}
			srow[j-1] = v
			if v > 0 {
				cnt[j-1]++
			}
			prev = dv
			erow[j] = pre[j]
			pre[j] *= 1 - dv
		}
	}
	copy(t.y, pre)
	for i := nC - 1; i >= 0; i-- {
		drow := t.d[i*nE:][:len(ends)]
		erow := t.excl[i*nE:][:len(ends)]
		for j, dv := range drow {
			erow[j] *= suf[j]
			suf[j] *= 1 - dv
		}
	}
}

// NumCandidates returns |C|, the candidate-set size.
func (t *Table) NumCandidates() int { return len(t.ids) }

// NumSubregions returns M, the subregion count (including the rightmost).
func (t *Table) NumSubregions() int { return t.m }

// IDs returns the dataset IDs in near-point order; callers must not mutate.
func (t *Table) IDs() []int { return t.ids }

// IDRank returns the position of candidate i's ID among the candidate IDs in
// ascending order: writing row i's result at IDRank(i) lists the candidates
// by ID.
func (t *Table) IDRank(i int) int { return t.rank[i] }

// Dist returns candidate i's distance pdf.
func (t *Table) Dist(i int) *pdf.Histogram { return t.dists[i] }

// Endpoints returns the end-point slice e_1..e_{M+1} (len M+1); callers must
// not mutate it.
func (t *Table) Endpoints() []float64 { return t.ends }

// K returns the neighbor count the table's cut is placed for.
func (t *Table) K() int { return t.k }

// Cut returns the cut f_k: the k-th smallest far point of the candidate set,
// f_min at k = 1.
func (t *Table) Cut() float64 { return t.cut }

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

// appendNew appends v to the ascending, duplicate-free ends unless it equals
// the last value — the dedupe of a sorted list, one value at a time.
func appendNew(ends []float64, v float64) []float64 {
	if len(ends) == 0 || v > ends[len(ends)-1] {
		return append(ends, v)
	}
	return ends
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
