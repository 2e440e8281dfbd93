package subregion

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/pdf"
)

// fillMatricesReference is the four-pass fill that fillMatrices fuses: the
// cdf march and the subregion probabilities and counts per candidate, then
// a forward exclusive-product prefix scan, the full product and a backward
// suffix scan, each over the whole matrix. It is the reference the fused
// fill is held to bit for bit.
func (t *Table) fillMatricesReference() {
	nC := len(t.dists)
	nE := len(t.ends)
	t.d = make([]float64, nC*nE)
	t.s = make([]float64, nC*t.m)
	t.excl = make([]float64, nC*nE)
	t.y = make([]float64, nE)
	t.c = make([]int, t.m)

	for i, dh := range t.dists {
		row := t.d[i*nE : (i+1)*nE]
		marchCDF(dh, t.ends, row)
		srow := t.s[i*t.m : (i+1)*t.m]
		for j := 0; j < t.m; j++ {
			v := row[j+1] - row[j]
			if v < 0 {
				v = 0
			}
			srow[j] = v
			if v > 0 {
				t.c[j]++
			}
		}
	}

	pre := make([]float64, nE)
	suf := make([]float64, nE)
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
// ends into out, in O(len(ends) + bins) time: the reference fill's cdf pass.
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

// referenceOf fills a second table over t's candidates and end-points with
// the reference fill.
func referenceOf(t *Table) *Table {
	r := &Table{ids: t.ids, dists: t.dists, ends: t.ends, m: t.m, k: t.k, cut: t.cut, fMax: t.fMax}
	r.fillMatricesReference()
	return r
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// matchesReference reports which of D, S, Excl, Y and the counts, if any,
// differ between t and the reference fill of its candidate set ("" when
// every one is bit-equal).
func matchesReference(t *Table) string {
	r := referenceOf(t)
	switch {
	case !sameBits(t.d, r.d):
		return "D"
	case !sameBits(t.s, r.s):
		return "S"
	case !sameBits(t.excl, r.excl):
		return "Excl"
	case !sameBits(t.y, r.y):
		return "Y"
	case !slices.Equal(t.c, r.c):
		return "counts"
	}
	return ""
}

// refCandidates draws a candidate set filtered at depth k around a query at
// 50, mixing uniform folds, folds of histograms with zero-mass bins, regions
// that contain the query (near point 0, tied across all of them) and exact
// copies of an earlier region (tied near points and identical rows).
func refCandidates(t *testing.T, rng *rand.Rand, k int) []Candidate {
	t.Helper()
	const q = 50.0
	n := 1 + rng.Intn(40)
	var regions []pdf.PDF
	for i := 0; i < n; i++ {
		lo := q - 25 + rng.Float64()*50
		var p pdf.PDF
		switch r := rng.Intn(5); {
		case r == 0 && len(regions) > 0:
			p = regions[rng.Intn(len(regions))]
		case r == 1:
			p = pdf.MustUniform(q-0.5-rng.Float64()*8, q+0.5+rng.Float64()*8)
		case r == 2:
			nb := 2 + rng.Intn(8)
			edges := make([]float64, nb+1)
			x := lo
			for j := range edges {
				edges[j] = x
				x += 0.1 + rng.Float64()*3
			}
			weights := make([]float64, nb)
			for j := range weights {
				if rng.Intn(3) > 0 {
					weights[j] = rng.Float64()
				}
			}
			weights[rng.Intn(nb)] += 0.5
			h, err := pdf.NewHistogram(edges, weights)
			if err != nil {
				t.Fatal(err)
			}
			p = h
		default:
			p = pdf.MustUniform(lo, lo+0.5+rng.Float64()*10)
		}
		regions = append(regions, p)
	}
	cands := make([]Candidate, len(regions))
	fars := make([]float64, len(regions))
	for i, p := range regions {
		d, err := dist.FromPDF(p, q)
		if err != nil {
			t.Fatal(err)
		}
		cands[i] = Candidate{ID: i, Dist: d}
		fars[i] = d.Support().Hi
	}
	slices.Sort(fars)
	fk := fars[min(k, len(fars))-1]
	return slices.DeleteFunc(cands, func(c Candidate) bool { return c.Dist.Support().Lo > fk })
}

// TestFillMatchesReference: the fused fill writes D, S, Excl, Y and the
// counts bit for bit as the four-pass reference does, on random candidate
// sets of uniform and zero-mass-bin histogram folds with tied near points,
// at k = 1 and deeper cuts, into fresh and dirty tables alike.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var dirty Table
	gaps, ties := 0, 0
	for trial := 0; trial < 400; trial++ {
		k := 1
		if trial%2 == 1 {
			k = 2 + rng.Intn(6)
		}
		cands := refCandidates(t, rng, k)
		fresh := new(Table)
		if err := fresh.Rebuild(cands, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if what := matchesReference(fresh); what != "" {
			t.Fatalf("trial %d (k=%d, |C|=%d): fused %s differs from the reference", trial, k, len(cands), what)
		}
		if err := dirty.Rebuild(cands, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if what := matchesReference(&dirty); what != "" {
			t.Fatalf("trial %d (k=%d, |C|=%d): fused %s over dirty storage differs from the reference", trial, k, len(cands), what)
		}
		if hasMassGap(fresh) {
			gaps++
		}
		if hasTiedNear(fresh) {
			ties++
		}
	}
	if gaps == 0 || ties == 0 {
		t.Fatalf("%d tables with a zero-mass bin inside a support, %d with tied near points; the generator should make both", gaps, ties)
	}
}

// hasMassGap reports whether some candidate puts no mass in a subregion
// strictly inside its support: a zero-mass histogram bin.
func hasMassGap(t *Table) bool {
	for i := 0; i < t.NumCandidates(); i++ {
		for j := 0; j < t.NumSubregions(); j++ {
			if t.S(i, j) == 0 && t.D(i, j) > 0 && t.D(i, j+1) < 1 {
				return true
			}
		}
	}
	return false
}

// hasTiedNear reports whether two candidates share a near point.
func hasTiedNear(t *Table) bool {
	for i := 1; i < t.NumCandidates(); i++ {
		if t.Dist(i).Support().Lo == t.Dist(i-1).Support().Lo {
			return true
		}
	}
	return false
}

// buildEndpointsReference is the end-point assembly buildEndpoints replaced:
// every near point and every distance-pdf edge below the cut, the cut and
// f_max (or the sentinel past the cut), sorted in one pass and deduplicated.
// It is the reference the merge is held to bit for bit.
func (t *Table) buildEndpointsReference() []float64 {
	var pts []float64
	for _, dh := range t.dists {
		pts = append(pts, dh.Support().Lo)
		for _, e := range dh.Edges() {
			if e < t.cut {
				pts = append(pts, e)
			}
		}
	}
	pts = append(pts, t.cut)
	if t.fMax > t.cut {
		pts = append(pts, t.fMax)
	} else {
		pts = append(pts, math.Nextafter(t.cut, math.Inf(1)))
	}
	sort.Float64s(pts)
	out := pts[:0]
	for i, v := range pts {
		if i == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// gaussCandidates draws a candidate set of discretized truncated Gaussians
// (the paper's 300-bar histograms, and coarser ones) around a query at 50,
// some straddling it, filtered at depth k.
func gaussCandidates(t *testing.T, rng *rand.Rand, k int) []Candidate {
	t.Helper()
	const q = 50.0
	n := 1 + rng.Intn(30)
	cands := make([]Candidate, n)
	fars := make([]float64, n)
	for i := range cands {
		lo := q - 20 + rng.Float64()*35
		g, err := pdf.PaperGaussian(lo, lo+1+rng.Float64()*12)
		if err != nil {
			t.Fatal(err)
		}
		h, err := pdf.Discretize(g, []int{7, 40, 300}[rng.Intn(3)])
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.FromPDF(h, q)
		if err != nil {
			t.Fatal(err)
		}
		cands[i] = Candidate{ID: i, Dist: d}
		fars[i] = d.Support().Hi
	}
	slices.Sort(fars)
	fk := fars[min(k, len(fars))-1]
	return slices.DeleteFunc(cands, func(c Candidate) bool { return c.Dist.Support().Lo > fk })
}

// TestEndpointsMatchSortReference: merging the rows' ascending near points
// with the sorted break points gives the end-points one sort and dedupe of
// everything gave, bit for bit, on uniform, histogram and discretized
// Gaussian candidates at k = 1 and deeper cuts, in shuffled input order and
// on a reused table. The rows come in (near, ID) order, and their IDRank
// lists them by ID.
func TestEndpointsMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var dirty Table
	for trial := 0; trial < 600; trial++ {
		k := 1
		if trial%3 > 0 {
			k = 2 + rng.Intn(6)
		}
		var cands []Candidate
		if trial%2 == 0 {
			cands = refCandidates(t, rng, k)
		} else {
			cands = gaussCandidates(t, rng, k)
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, tb := range []*Table{new(Table), &dirty} {
			if err := tb.Rebuild(cands, k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got, want := tb.Endpoints(), tb.buildEndpointsReference(); !sameBits(got, want) {
				t.Fatalf("trial %d (k=%d, |C|=%d): end-points\n%v\nwant\n%v", trial, k, len(cands), got, want)
			}
			for i := 1; i < tb.NumCandidates(); i++ {
				lo, prev := tb.Dist(i).Support().Lo, tb.Dist(i-1).Support().Lo
				if lo < prev || lo == prev && tb.IDs()[i] <= tb.IDs()[i-1] {
					t.Fatalf("trial %d: rows %d, %d out of (near, ID) order", trial, i-1, i)
				}
			}
			byID := make([]int, tb.NumCandidates())
			for i, id := range tb.IDs() {
				byID[tb.IDRank(i)] = id
			}
			if !slices.IsSorted(byID) || len(slices.Compact(slices.Clone(byID))) != len(byID) {
				t.Fatalf("trial %d: IDRank lists the rows as %v, not by ascending ID", trial, byID)
			}
		}
	}
}
