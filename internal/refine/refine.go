// Package refine computes exact probabilities over a subregion table, the
// last phase of the C-PNN pipeline (paper §IV-D). ExactAll is the one exact
// integrator PNN and C-kNN run: it shares each subregion's quadrature nodes
// across the candidates of a table cut at f_min or at f_k (the EDBT 2009
// follow-up). C-PNN refines a candidate at a time (Incremental), and its
// Basic strategy is the baseline of Cheng et al. (SIGMOD'03). Exact and
// MonteCarlo (after Kriegel et al., DASFAA'07, the paper's [9]) are test
// references that no serving path calls.
//
// Incremental refinement exploits the subregion table: the qualification
// probability decomposes as p_i = Σ_j s_ij·q_ij, and within one subregion
// every distance cdf is linear, so the conditional probability q_ij is the
// average of a polynomial over the subregion — integrable exactly by
// Gauss–Legendre quadrature. Subregions are collapsed one at a time (largest
// mass first), the running bound is re-classified after each collapse, and
// refinement stops as soon as the classifier decides, which is the whole
// point: most objects need only a few subregions.
package refine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/quad"
	"repro/internal/subregion"
	"repro/internal/verify"
)

// Prior supplies the per-subregion bounds [q_ij.l, q_ij.u] that incremental
// refinement starts from for not-yet-integrated subregions.
type Prior interface {
	// Lower returns q_ij.l for candidate i in subregion j.
	Lower(t *subregion.Table, i, j int) float64
	// Upper returns q_ij.u for candidate i in subregion j.
	Upper(t *subregion.Table, i, j int) float64
}

// VerifierPrior reuses the L-SR / U-SR subregion bounds — the knowledge the
// verifiers accumulated (paper §IV-D: "the probability bounds of each object
// in each subregion have already been computed by the verifiers").
type VerifierPrior struct{}

// Lower implements Prior via Lemma 2.
func (VerifierPrior) Lower(t *subregion.Table, i, j int) float64 {
	return verify.SubregionLower(t, i, j)
}

// Upper implements Prior via Eq. 11.
func (VerifierPrior) Upper(t *subregion.Table, i, j int) float64 {
	return verify.SubregionUpper(t, i, j)
}

// TrivialPrior assumes nothing: q_ij ∈ [0, 1]. It is the prior of the
// paper's Refine strategy, which skips verification.
type TrivialPrior struct{}

// Lower implements Prior.
func (TrivialPrior) Lower(*subregion.Table, int, int) float64 { return 0 }

// Upper implements Prior.
func (TrivialPrior) Upper(*subregion.Table, int, int) float64 { return 1 }

// autoGLNodes returns a Gauss–Legendre rule size that integrates the
// subregion integrand exactly: a polynomial in up to n linear cdf factors
// has degree at most n, and ⌊n/2⌋+1 nodes are exact to degree 2⌊n/2⌋+1 ≥ n
// (up to quad.MaxGaussNodes). Exact passes n = |C|, ExactAll the subregion's
// candidate count c_j.
func autoGLNodes(n int) int {
	n = n/2 + 1
	if n > quad.MaxGaussNodes {
		n = quad.MaxGaussNodes
	}
	if n < 2 {
		n = 2
	}
	return n
}

// glTolerance bounds the quadrature error ExactAll admits in one subregion
// average: below the rounding of the count distributions it integrates.
const glTolerance = 1e-17

// knnGLNodes returns the Gauss–Legendre rule size for a subregion average of
// ExactAll's G over S_j, where count candidates have mass and the cdfs rise
// by rise in total: the exact size autoGLNodes(count), or fewer nodes when
// the rule's remainder is provably below glTolerance. On t ∈ [0, 1] the
// n-point remainder is (n!)⁴ / ((2n+1)·((2n)!)³) · G⁽²ⁿ⁾(ξ). G is multilinear
// in cdfs D_a(t) = D_a(0) + β_a·t, so G⁽ᵐ⁾ sums m!·e_m(β) mixed partials, each
// an alternating sum of 2ᵐ probabilities: |G⁽ᵐ⁾| ≤ 2ᵐ⁻¹·(Σ_a β_a)ᵐ. A
// subregion deep in an overlap holds hundreds of candidates but little
// mass, and needs a handful of nodes instead of half its candidate count.
func knnGLNodes(count int, rise float64) int {
	exact := autoGLNodes(count)
	logTol, logRise := math.Log(glTolerance), math.Log(rise)
	for n := 2; n < exact; n++ {
		nf := float64(n)
		lgN, _ := math.Lgamma(nf + 1)
		lg2N, _ := math.Lgamma(2*nf + 1)
		if 4*lgN-math.Log(2*nf+1)-3*lg2N+(2*nf-1)*math.Ln2+2*nf*logRise <= logTol {
			return n
		}
	}
	return exact
}

// ExactSubregion returns q_ij — the exact probability that candidate i is
// the nearest neighbor given R_i ∈ S_j — by Gauss–Legendre integration of
// Π_{k≠i}(1 − D_k(r)) averaged over the subregion. Within a subregion every
// D_k is linear, so the table's end-point cdf values interpolate it exactly.
// glNodes <= 0 selects autoGLNodes.
func ExactSubregion(t *subregion.Table, i, j, glNodes int) (float64, error) {
	if j < 0 || j >= t.NumSubregions() {
		return 0, fmt.Errorf("refine: subregion %d outside [0, %d)", j, t.NumSubregions())
	}
	if j == t.NumSubregions()-1 {
		return 0, nil // rightmost subregion: beyond f_min, never the NN
	}
	if t.S(i, j) == 0 {
		return 0, nil // no mass here; conditional value is irrelevant
	}
	if glNodes <= 0 {
		glNodes = autoGLNodes(t.NumCandidates())
	}
	ends := t.Endpoints()
	e0, e1 := ends[j], ends[j+1]
	w := e1 - e0
	nC := t.NumCandidates()
	f := func(r float64) float64 {
		frac := (r - e0) / w
		prod := 1.0
		for k := 0; k < nC; k++ {
			if k == i {
				continue
			}
			dk := t.D(k, j) + (t.D(k, j+1)-t.D(k, j))*frac
			prod *= 1 - dk
			if prod == 0 {
				break
			}
		}
		return prod
	}
	v, err := quad.GL(f, e0, e1, glNodes)
	if err != nil {
		return 0, err
	}
	return v / w, nil
}

// Exact returns candidate i's exact qualification probability by integrating
// every subregion. glNodes <= 0 selects autoGLNodes. A test reference: per
// candidate it repeats the products ExactAll shares, O(|C|²·M) each.
func Exact(t *subregion.Table, i, glNodes int) (float64, error) {
	p := 0.0
	for j := 0; j < t.NumSubregions()-1; j++ {
		s := t.S(i, j)
		if s == 0 {
			continue
		}
		q, err := ExactSubregion(t, i, j, glNodes)
		if err != nil {
			return 0, err
		}
		p += s * q
	}
	return clamp01(p), nil
}

// ExactAll returns every candidate's exact probability of being among the
// k nearest neighbors, k being the table's (Table.K), indexed like the
// table's candidates. It is the k-NN generalization of Exact from the
// paper's follow-up (Cheng, Chen, Chen & Xie, EDBT 2009): for candidate i,
//
//	p_i = Σ_j s_ij · avg_{S_j} G_i(r),
//
// where G_i(r) is the probability that at most k−1 of the other candidates
// lie within r. Inside S_j every cdf is linear, so G_i is a polynomial of
// degree at most c_j (Table.Count) and autoGLNodes(c_j) Gauss–Legendre nodes
// integrate it exactly; knnGLNodes takes fewer where the rule's remainder is
// provably below 1e-17. The rightmost subregion lies beyond the cut f_k and
// adds nothing. At each node one prefix and one suffix pass of a
// Poisson-binomial DP truncated at k give every leave-one-out G_i — at k = 1
// the no-division prefix × suffix product the table's Excl column holds at
// end-points. The passes run over the candidates whose cdf is strictly
// between 0 and 1 on S_j: a finished one (D = 1) is within r for certain
// and shifts the count by one, an unstarted one (D = 0) never is.
//
// The passes are as wide as a subregion can need, not as k. Let kk be k
// less the finished candidates: where at most kk are active, at most kk−1
// others can lie within r, every G_i is 1 and the subregion adds s_ij
// unintegrated; otherwise c > kk active ones need (c+1)·kk prefix entries.
// With k >= |C| every candidate is among the k nearest and p_i = 1
// outright. Memory is therefore O(|C|·min(k, |C|)) and time
// O(Σ_j nodes_j·c_j·kk).
func ExactAll(t *subregion.Table) ([]float64, error) {
	nC, k := t.NumCandidates(), t.K()
	out := make([]float64, nC)
	if k >= nC {
		for i := range out {
			out[i] = 1
		}
		return out, nil
	}
	active := make([]int, 0, nC)
	// By active position: the cdf at S_j's left end, its rise over S_j, its
	// value at the current node, and avg_{S_j} G.
	buf := make([]float64, 4*nC)
	d0, rise, d, acc := buf[:nC], buf[nC:2*nC], buf[2*nC:3*nC], buf[3*nC:]
	var pre []float64         // row a: count distribution over active[:a]
	suf := make([]float64, k) // cumulative count distribution over active[a+1:]
	for j := 0; j < t.NumSubregions()-1; j++ {
		if t.Count(j) == 0 {
			continue
		}
		active, finished, totalRise := active[:0], 0, 0.0
		for i := 0; i < nC; i++ {
			switch lo, hi := t.D(i, j), t.D(i, j+1); {
			case lo >= 1:
				finished++
			case hi > 0:
				d0[len(active)], rise[len(active)] = lo, hi-lo
				active = append(active, i)
				totalRise += math.Abs(hi - lo)
			}
		}
		// kk counts of the active others, 0..kk−1, leave i among the k nearest.
		kk := k - finished
		if kk <= 0 {
			continue
		}
		if kk >= len(active) {
			// At most len(active)−1 others lie within r: G_i = 1 on S_j.
			for _, i := range active {
				out[i] += t.S(i, j)
			}
			continue
		}
		if n := (len(active) + 1) * kk; cap(pre) < n {
			pre = make([]float64, max(n, 2*cap(pre))) // at most twice the widest need
		}
		nodes, weights, err := quad.GaussLegendre(knnGLNodes(t.Count(j), totalRise))
		if err != nil {
			return nil, err
		}
		clear(acc[:len(active)])
		for l, x := range nodes {
			frac := (x + 1) / 2
			for a := range active {
				d[a] = d0[a] + rise[a]*frac
			}
			clear(pre[:kk])
			pre[0] = 1
			for a, da := range d[:len(active)] {
				prev, next := pre[a*kk:(a+1)*kk], pre[(a+1)*kk:(a+2)*kk]
				next[0] = prev[0] * (1 - da)
				for c := 1; c < len(next); c++ {
					next[c] = prev[c]*(1-da) + prev[c-1]*da
				}
			}
			// The suffix is kept cumulative and reversed — suf[kk−1−c] is the
			// probability that at most c of active[a+1:] lie within r — so
			// G = Σ_{c+c' < kk} pre[c]·Pr(c' of the suffix) is one dot product.
			suf := suf[:kk]
			for c := range suf {
				suf[c] = 1
			}
			w := weights[l] / 2 // the weights sum to 2 on [−1, 1]
			for a := len(active) - 1; a >= 0; a-- {
				prev, da := pre[a*kk:(a+1)*kk], d[a]
				g := 0.0
				for c, p := range prev {
					g += p * suf[c]
				}
				acc[a] += w * g
				for c := 0; c < len(suf)-1; c++ {
					suf[c] = suf[c]*(1-da) + suf[c+1]*da
				}
				suf[kk-1] *= 1 - da
			}
		}
		for a, i := range active {
			out[i] += t.S(i, j) * acc[a]
		}
	}
	for i, p := range out {
		out[i] = clamp01(p)
	}
	return out, nil
}

// IncrementalResult reports one candidate's refinement outcome.
type IncrementalResult struct {
	// Bounds is the final probability bound; if every subregion was
	// integrated it collapses to the exact value.
	Bounds verify.Bounds
	// Status is the final classification.
	Status verify.Status
	// Integrations counts the subregions actually integrated — the cost
	// measure that incremental refinement minimizes.
	Integrations int
}

// Incremental refines candidate i until the classifier decides, collapsing
// per-subregion bounds to exact values in descending order of subregion mass
// s_ij (paper §IV-D). start is the candidate's bound entering refinement;
// pass the verifier output for the VR strategy or the zero value
// Bounds{0, 1} when skipping verification.
func Incremental(t *subregion.Table, i int, c verify.Constraint, start verify.Bounds, prior Prior) (IncrementalResult, error) {
	if err := c.Validate(); err != nil {
		return IncrementalResult{}, err
	}
	m := t.NumSubregions()
	// Collect refinable subregions, heaviest first.
	order := make([]int, 0, m-1)
	for j := 0; j < m-1; j++ {
		if t.S(i, j) > 0 {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool { return t.S(i, order[a]) > t.S(i, order[b]) })

	// Rebuild the running bound from the prior so collapses stay coherent,
	// then intersect with the incoming bound (which may be tighter, e.g. RS).
	l, u := 0.0, 0.0
	for _, j := range order {
		s := t.S(i, j)
		l += s * prior.Lower(t, i, j)
		u += s * prior.Upper(t, i, j)
	}
	b := (verify.Bounds{L: clamp01(l), U: clamp01(u)}).Tighten(start)
	res := IncrementalResult{Bounds: b, Status: verify.Classify(b, c)}
	if res.Status != verify.Unknown {
		return res, nil
	}

	for _, j := range order {
		s := t.S(i, j)
		q, err := ExactSubregion(t, i, j, 0)
		if err != nil {
			return res, err
		}
		res.Integrations++
		// Collapse [q_ij.l, q_ij.u] to the exact q_ij (paper §IV-D).
		b.L += s * (q - prior.Lower(t, i, j))
		b.U -= s * (prior.Upper(t, i, j) - q)
		if b.L > b.U {
			// Rounding can cross the bounds by an ulp; collapse to the mean.
			mid := (b.L + b.U) / 2
			b.L, b.U = mid, mid
		}
		res.Bounds = verify.Bounds{L: clamp01(b.L), U: clamp01(b.U)}
		b = res.Bounds
		res.Status = verify.Classify(res.Bounds, c)
		if res.Status != verify.Unknown {
			return res, nil
		}
	}
	// All subregions integrated: the bound is the exact probability (up to
	// quadrature round-off); force a decision against the threshold.
	mid := (res.Bounds.L + res.Bounds.U) / 2
	res.Bounds = verify.Bounds{L: mid, U: mid}
	if mid >= c.P {
		res.Status = verify.Satisfy
	} else {
		res.Status = verify.Fail
	}
	return res, nil
}

// Basic computes candidate i's qualification probability the way the
// paper's Basic strategy does: direct fixed-step Simpson integration of
// d_i(r)·Π_{k≠i}(1 − D_k(r)) over the distance domain, re-evaluating every
// cdf from scratch at every quadrature point. It deliberately shares no work
// across candidates — it is the baseline whose cost the verifiers avoid.
func Basic(cands []subregion.Candidate, i, steps int) (float64, error) {
	if i < 0 || i >= len(cands) {
		return 0, fmt.Errorf("refine: candidate %d outside [0, %d)", i, len(cands))
	}
	if steps < 2 {
		return 0, fmt.Errorf("refine: need at least 2 integration steps, got %d", steps)
	}
	di := cands[i].Dist
	sup := di.Support()
	// Integrating past f_min is pointless: some object is certainly closer.
	hi := sup.Hi
	for _, c := range cands {
		if f := c.Dist.Support().Hi; f < hi {
			hi = f
		}
	}
	if hi <= sup.Lo {
		return 0, nil
	}
	f := func(r float64) float64 {
		v := di.Density(r)
		if v == 0 {
			return 0
		}
		for k, c := range cands {
			if k == i {
				continue
			}
			v *= 1 - c.Dist.CDF(r)
			if v == 0 {
				return 0
			}
		}
		return v
	}
	p, err := quad.Simpson(f, sup.Lo, hi, steps)
	if err != nil {
		return 0, err
	}
	return clamp01(p), nil
}

// BasicAll runs Basic for every candidate, the full cost of the paper's
// Basic strategy.
func BasicAll(cands []subregion.Candidate, steps int) ([]float64, error) {
	out := make([]float64, len(cands))
	for i := range cands {
		p, err := Basic(cands, i, steps)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// MonteCarlo estimates all candidates' qualification probabilities by
// sampling each distance pdf and tallying the nearest candidate, after the
// sampling evaluator of the paper's reference [9]. Exact ties split their
// tally evenly. It is a test reference, the engine tests' ground truth.
func MonteCarlo(cands []subregion.Candidate, samples int, rng *rand.Rand) ([]float64, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	if samples < 1 {
		return nil, fmt.Errorf("refine: need at least 1 sample, got %d", samples)
	}
	counts := make([]float64, len(cands))
	winners := make([]int, 0, 4)
	for s := 0; s < samples; s++ {
		best := math.Inf(1)
		winners = winners[:0]
		for k, c := range cands {
			r := c.Dist.Sample(rng)
			switch {
			case r < best:
				best = r
				winners = append(winners[:0], k)
			case r == best:
				winners = append(winners, k)
			}
		}
		share := 1.0 / float64(len(winners))
		for _, w := range winners {
			counts[w] += share
		}
	}
	for i := range counts {
		counts[i] /= float64(samples)
	}
	return counts, nil
}

func clamp01(v float64) float64 { return min(max(v, 0), 1) }
