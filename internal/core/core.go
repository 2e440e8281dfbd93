// Package core is the C-PNN query engine — the paper's primary contribution
// assembled from its substrates: R-tree filtering (internal/filter),
// distance-distribution derivation (internal/dist), subregion decomposition
// (internal/subregion), probabilistic verification (internal/verify) and
// incremental refinement (internal/refine).
//
// The engine evaluates Constrained Probabilistic Nearest-Neighbor queries
// under three strategies mirroring the paper's experimental section:
//
//	Basic  — compute every candidate's exact probability by direct numeric
//	         integration, then threshold (the method of Cheng et al. '03).
//	Refine — skip verification; run incremental refinement with trivial
//	         per-subregion priors.
//	VR     — run the verifier chain, then incrementally refine only the
//	         objects the verifiers leave unknown (the paper's solution).
//
// It also answers plain PNN queries (exact probabilities for the whole
// candidate set), probabilistic min/max queries (PNN with q at −∞/+∞, per the
// paper's introduction), and constrained probabilistic k-NN queries — the
// paper's stated future work — via sampling.
//
// # One pipeline
//
// The paper's method touches an uncertain object only through its near and
// far points (the filter) and its distance pdf (everything after), so the
// sequence filter → derive → subregion table → verify → refine is written
// once, in pipeline[Q] (pipeline.go), over the unexported source[Q] seam:
// check a query point, list the candidates with f_min, name a candidate's
// ID, derive its distance pdf. The seam is asked once per query and once per
// candidate; folds, verifiers and refinement never see it.
//
//   - Engine (Q = float64) adds source1D — dense IDs, the filter.Index R-tree,
//     interval folds behind the discretization memo — and what needs the
//     dataset itself: Min/Max, CKNN, and the incremental entry points of
//     incremental.go, whose prepare step is the pipeline's stateful
//     counterpart (same phases, folds and table kept in an EvalState).
//   - Engine2D (Q = geom.Point) adds source2D — disks, a bounding-box R-tree,
//     the lens-area reduction — and nothing else.
//
// A candidate is therefore filtered in one place (source.candidates, or
// incrementalFilter for a stateful query), derived in one (pipeline.derive /
// Engine.cacheFold, both through source.dist) and classified in one
// (finishVerifyRefine, cpnnBasic or exactAll, each called by the pipeline and
// by its incremental counterpart). A per-candidate explanation — which
// verifier or refinement step decided an object — belongs in
// finishVerifyRefine next to Stats.UnknownAfter; a request context belongs
// in pipeline.prepare and incrementalPrepare, checked between phases and
// handed to the derivation pool.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/refine"
	"repro/internal/subregion"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Strategy selects the C-PNN evaluation method.
type Strategy int

const (
	// VR is verification followed by incremental refinement (the paper's
	// proposed solution).
	VR Strategy = iota
	// Refine is incremental refinement without verification.
	Refine
	// Basic is exact evaluation of every candidate.
	Basic
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case VR:
		return "VR"
	case Refine:
		return "Refine"
	case Basic:
		return "Basic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options tunes query evaluation. The zero value selects the paper's
// defaults.
type Options struct {
	// Strategy is the evaluation method; the zero value is VR.
	Strategy Strategy
	// Verifiers overrides the verifier chain; nil means the paper's
	// RS → L-SR → U-SR order.
	Verifiers []verify.Verifier
	// GLNodes overrides the Gauss–Legendre rule size for subregion
	// integration; 0 selects the exactness-preserving automatic size.
	GLNodes int
	// BasicSteps is the Simpson step count of the Basic strategy; 0 means
	// 1000.
	BasicSteps int
	// Bins is the histogram resolution used to discretize analytic pdfs;
	// 0 means dist.DefaultBins (300, as in the paper).
	Bins int
}

func (o Options) withDefaults() Options {
	if o.Verifiers == nil {
		o.Verifiers = verify.DefaultChain()
	}
	if o.BasicSteps == 0 {
		o.BasicSteps = 1000
	}
	if o.Bins == 0 {
		o.Bins = dist.DefaultBins
	}
	return o
}

// Engine answers probabilistic nearest-neighbor queries over one 1-D
// dataset. CPNN, CPNNScratch, CPNNBatch, PNN and PNNScratch are the embedded
// pipeline's; the engine adds what needs the dataset itself: min/max
// queries, the sampling-based k-NN, and the incremental entry points
// (incremental.go).
type Engine struct {
	pipeline[float64]
	source1D
}

// source1D is the pipeline's view of a 1-D dataset: positions are dense
// dataset IDs, the filter is the R-tree index, and distance pdfs are interval
// folds through the deriver's discretization memo.
type source1D struct {
	ds   *uncertain.Dataset
	ix   *filter.Index
	memo *deriver
}

func (s *source1D) check(q float64) error { return checkQuery(q) }

func (s *source1D) candidates(q float64) ([]int, float64) {
	fr := s.ix.Candidates(q)
	return fr.IDs, fr.FMin
}

func (s *source1D) id(pos int) int { return pos }

func (s *source1D) dist(pos int, q float64, bins int, a *pdf.Alloc) (*pdf.Histogram, error) {
	return s.memo.distFor(s.ds.Object(pos), q, bins, a)
}

// NewEngine indexes the dataset and returns a ready engine.
func NewEngine(ds *uncertain.Dataset) (*Engine, error) {
	ix, err := filter.NewIndex(ds)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return newEngine(ds, ix), nil
}

// NewEngineWithIndex wraps an already-built filter index — the store's
// incrementally-maintained MVCC views hand their index straight to the
// engine instead of paying a bulk reload per committed batch. The index must
// be bound to ds.
func NewEngineWithIndex(ds *uncertain.Dataset, ix *filter.Index) (*Engine, error) {
	if ix == nil {
		return NewEngine(ds)
	}
	if ix.Dataset() != ds {
		return nil, fmt.Errorf("core: index is bound to a different dataset")
	}
	return newEngine(ds, ix), nil
}

func newEngine(ds *uncertain.Dataset, ix *filter.Index) *Engine {
	dv := newDeriver()
	e := &Engine{source1D: source1D{ds: ds, ix: ix, memo: dv}}
	e.pipeline = pipeline[float64]{src: &e.source1D, dv: dv}
	return e
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *uncertain.Dataset { return e.ds }

// Answer is one object of a query result.
type Answer struct {
	// ID is the object's dataset ID.
	ID int
	// Bounds is the final probability bound established for the object; for
	// the Basic strategy it is a point bound.
	Bounds verify.Bounds
	// Status is the final classification.
	Status verify.Status
}

// Stats records per-phase costs of one query, the quantities behind the
// paper's Figures 9–14.
type Stats struct {
	// FilterTime is the time spent computing the candidate set.
	FilterTime time.Duration
	// InitTime covers distance pdf/cdf derivation and subregion-table
	// construction (the paper counts this within verification).
	InitTime time.Duration
	// TableTime is the subregion-table share of InitTime on the stateless
	// entry points, so InitTime − TableTime is derivation alone. The
	// incremental entry points patch the table between derivations and leave
	// it zero.
	TableTime time.Duration
	// VerifyTime is the verifier-chain time.
	VerifyTime time.Duration
	// RefineTime covers all probability integration.
	RefineTime time.Duration
	// Candidates is |C|, the candidate-set size.
	Candidates int
	// Subregions is M.
	Subregions int
	// FMin is the filtering bound — the critical distance of the query. For
	// CPNN/PNN it is the minimum far-point distance over all objects; for
	// CKNN the k-th smallest far-point distance. Every object whose region
	// stays entirely beyond FMin from the query point provably cannot change
	// the answer, which is what the continuous-monitoring layer's
	// influence-region pruning is built on (see internal/monitor).
	FMin float64
	// VerifiersApplied names the verifiers that ran, in order.
	VerifiersApplied []string
	// UnknownAfter[k] is the number of unknown objects after
	// VerifiersApplied[k] (paper Fig. 12).
	UnknownAfter []int
	// RefinedObjects counts objects that needed refinement.
	RefinedObjects int
	// Integrations counts subregion integrations performed.
	Integrations int
}

// Total returns the end-to-end query time.
func (s Stats) Total() time.Duration {
	return s.FilterTime + s.InitTime + s.VerifyTime + s.RefineTime
}

// PhaseDurations maps the four recorded timers onto the serving stack's
// three observable phases: filter (candidate-set computation), derive
// (pdf/cdf derivation and subregion setup), and verify (verifier chain plus
// all refinement integration). This is the contract behind the
// cpnn_query_phase_seconds{phase=...} histograms.
func (s Stats) PhaseDurations() (filter, derive, verify time.Duration) {
	return s.FilterTime, s.InitTime, s.VerifyTime + s.RefineTime
}

// Result is a C-PNN answer set with per-candidate detail and statistics.
type Result struct {
	// Answers holds the objects that satisfy the C-PNN, sorted by ID.
	Answers []Answer
	// Candidates holds the classification of every candidate-set object
	// (including failures), sorted by ID.
	Candidates []Answer
	// Stats records the per-phase costs.
	Stats Stats
}

// AnswerIDs returns the IDs of the satisfying objects.
func (r *Result) AnswerIDs() []int {
	ids := make([]int, len(r.Answers))
	for i, a := range r.Answers {
		ids[i] = a.ID
	}
	return ids
}

// checkQuery rejects non-finite query points before any engine work: a NaN
// poisons every distance comparison silently, so it must never reach the
// filter.
func checkQuery(q float64) error {
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return fmt.Errorf("core: non-finite query point %g", q)
	}
	return nil
}

// finishVerifyRefine runs the verification and refinement phases over a
// built subregion table, shared by the stateless pipeline and
// CPNNIncremental.
func finishVerifyRefine(table *subregion.Table, c verify.Constraint, opt Options, res *Result) (*Result, error) {
	n := table.NumCandidates()
	bounds := make([]verify.Bounds, n)
	status := make([]verify.Status, n)
	for i := range bounds {
		bounds[i] = verify.Bounds{L: 0, U: 1}
	}

	var prior refine.Prior = refine.TrivialPrior{}
	if opt.Strategy == VR {
		start := time.Now()
		vres, err := verify.Run(table, c, opt.Verifiers)
		if err != nil {
			return nil, err
		}
		res.Stats.VerifyTime = time.Since(start)
		res.Stats.VerifiersApplied = vres.Applied
		res.Stats.UnknownAfter = vres.UnknownAfter
		bounds, status = vres.Bounds, vres.Status
		prior = refine.VerifierPrior{}
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		if status[i] != verify.Unknown {
			continue
		}
		r, err := refine.Incremental(table, i, c, bounds[i], prior, opt.GLNodes)
		if err != nil {
			return nil, err
		}
		bounds[i], status[i] = r.Bounds, r.Status
		res.Stats.RefinedObjects++
		res.Stats.Integrations += r.Integrations
	}
	res.Stats.RefineTime = time.Since(start)

	collect(res, table.IDs(), bounds, status)
	return res, nil
}

// exactAll finishes a PNN: it integrates every candidate of a table exactly
// and orders the result by descending probability, ties by ID. It is shared
// by PNN and PNNIncremental, so both produce identical orderings.
func exactAll(table *subregion.Table, glNodes int, st *Stats) ([]Probability, error) {
	start := time.Now()
	out := make([]Probability, table.NumCandidates())
	for i := range out {
		p, err := refine.Exact(table, i, glNodes)
		if err != nil {
			return nil, err
		}
		out[i] = Probability{ID: table.IDs()[i], P: p}
	}
	st.RefineTime = time.Since(start)
	st.RefinedObjects = len(out)
	sort.Slice(out, func(a, b int) bool {
		if out[a].P != out[b].P {
			return out[a].P > out[b].P
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// cpnnBasic finishes a query under the Basic strategy: exact integration for
// every candidate, then thresholding. It is shared by the stateless pipeline
// and CPNNIncremental.
func cpnnBasic(cands []subregion.Candidate, c verify.Constraint, opt Options, res *Result) (*Result, error) {
	start := time.Now()
	probs, err := refine.BasicAll(cands, opt.BasicSteps)
	if err != nil {
		return nil, err
	}
	res.Stats.RefineTime = time.Since(start)
	res.Stats.RefinedObjects = len(cands)

	ids := make([]int, len(cands))
	bounds := make([]verify.Bounds, len(cands))
	status := make([]verify.Status, len(cands))
	for i, cand := range cands {
		ids[i] = cand.ID
		bounds[i] = verify.Bounds{L: probs[i], U: probs[i]}
		status[i] = verify.Classify(bounds[i], c)
	}
	collect(res, ids, bounds, status)
	return res, nil
}

// collect fills a Result's answer slices, sorted by object ID. Candidates
// are sorted once; Answers inherit the order by filtering afterwards.
func collect(res *Result, ids []int, bounds []verify.Bounds, status []verify.Status) {
	res.Candidates = make([]Answer, len(ids))
	for i, id := range ids {
		res.Candidates[i] = Answer{ID: id, Bounds: bounds[i], Status: status[i]}
	}
	slices.SortFunc(res.Candidates, func(a, b Answer) int { return a.ID - b.ID })
	for _, a := range res.Candidates {
		if a.Status == verify.Satisfy {
			res.Answers = append(res.Answers, a)
		}
	}
}

// Probability is an object ID paired with its exact qualification
// probability.
type Probability struct {
	ID int
	P  float64
}

// Min answers a constrained probabilistic minimum query: which objects have
// probability >= P of holding the minimum value. Per the paper's
// introduction, a minimum query is the PNN with q at −∞; any query point at
// or below every uncertainty region is equivalent, so the engine uses the
// domain's lower edge.
func (e *Engine) Min(c verify.Constraint, opt Options) (*Result, error) {
	if e.ds.Len() == 0 {
		return &Result{}, nil
	}
	return e.CPNN(e.ds.Domain().Lo, c, opt)
}

// Max answers the symmetric constrained probabilistic maximum query (q at
// +∞, realized as the domain's upper edge).
func (e *Engine) Max(c verify.Constraint, opt Options) (*Result, error) {
	if e.ds.Len() == 0 {
		return &Result{}, nil
	}
	return e.CPNN(e.ds.Domain().Hi, c, opt)
}

// DefaultKNNSamples is the Monte-Carlo sample count a k-NN evaluation draws
// when none is given — here and at every surface that parses one.
const DefaultKNNSamples = 10000

// KNNOptions tunes the sampling-based constrained k-NN evaluation.
type KNNOptions struct {
	// K is the neighbor count; it must be at least 1.
	K int
	// Samples is the Monte-Carlo sample count; 0 means DefaultKNNSamples.
	Samples int
	// Seed makes the evaluation deterministic.
	Seed int64
	// Bins is the discretization resolution for analytic pdfs; 0 means
	// dist.DefaultBins.
	Bins int
	// IDs, when set, maps dense dataset IDs to stable external IDs and makes
	// the evaluation a pure function of the *stable-ID object set*: each
	// candidate samples from its own RNG stream seeded by (Seed, IDs[id]),
	// and rank ties break by stable ID. Without it, all candidates share one
	// stream in dense-ID order, so answers depend on dataset slot layout.
	// The monitoring layer needs the stable form: after an unrelated delete,
	// dense IDs reshuffle but a pruned standing query's answer must be
	// byte-identical on recomputation. Must have length Dataset().Len().
	IDs []uint64
}

// KNNAnswer is one object of a constrained k-NN result.
type KNNAnswer struct {
	// ID is the object's dataset ID.
	ID int
	// Bounds is the estimated probability of being among the k nearest
	// neighbors, widened to a ±4σ confidence bound.
	Bounds verify.Bounds
	// Status is the classification against the constraint.
	Status verify.Status
}

// CKNN evaluates a constrained probabilistic k-nearest-neighbor query — the
// paper's stated future work — by filtering against the k-th smallest far
// point (the natural generalization of the RS pruning rule) and estimating
// membership probabilities by Monte-Carlo over the surviving candidates.
// Bounds carry a ±4σ normal-approximation confidence width, and objects are
// classified with the same Definition 1 rules as the C-PNN. The returned
// Stats expose the candidate count and the critical distance f_k (Stats.FMin).
func (e *Engine) CKNN(q float64, c verify.Constraint, opt KNNOptions) ([]KNNAnswer, Stats, error) {
	var st Stats
	k, err := e.knnBegin(q, c, &opt)
	if err != nil || k == 0 {
		return nil, st, err
	}
	start := time.Now()
	fk, ids := e.cknnFilter(q, k)
	st.FilterTime = time.Since(start)
	st.FMin = fk
	st.Candidates = len(ids)
	start = time.Now()
	cands, err := e.derive(nil, ids, q, opt.Bins)
	st.InitTime = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	out := cknnClassify(cands, k, c, opt, &st)
	return out, st, nil
}

// knnBegin is the entry check CKNN and KNNIncremental share: a valid
// constraint, a finite query point, K >= 1, an ID map (when given) covering
// the dataset, and the Samples/Bins defaults filled into opt. It returns the
// effective neighbor count min(K, n), which is 0 exactly when the dataset is
// empty and the answer therefore is.
func (e *Engine) knnBegin(q float64, c verify.Constraint, opt *KNNOptions) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := checkQuery(q); err != nil {
		return 0, err
	}
	if opt.K < 1 {
		return 0, fmt.Errorf("core: k = %d < 1", opt.K)
	}
	if opt.Samples == 0 {
		opt.Samples = DefaultKNNSamples
	}
	if opt.Bins == 0 {
		opt.Bins = dist.DefaultBins
	}
	n := e.ds.Len()
	if opt.IDs != nil && len(opt.IDs) != n {
		return 0, fmt.Errorf("core: IDs maps %d objects, dataset holds %d", len(opt.IDs), n)
	}
	return min(opt.K, n), nil
}

// cknnFilter computes the k-NN critical distance f_k — the k-th smallest far
// point; objects whose near point exceeds it cannot be among the k nearest,
// because k objects are certainly closer — and the surviving candidate IDs in
// dense order, both off the R-tree: the best-first walk for f_k, then the
// window search C-PNN's own filter runs. Shared by CKNN and KNNIncremental.
func (e *Engine) cknnFilter(q float64, k int) (float64, []int) {
	fars := e.ix.FarBounds(q, k)
	fk := fars[len(fars)-1]
	return fk, e.ix.Within(q, fk)
}

// cknnClassify is the verification half of a constrained k-NN evaluation,
// shared by CKNN and KNNIncremental: analytic pre-verification against f_k,
// Monte-Carlo rank sampling for the survivors, and Definition 1
// classification. It is a deterministic function of the candidate set, f_k
// (stats.FMin) and the options (with opt.IDs set, sampling streams are keyed
// by stable ID, so the result is also independent of candidate order). Its
// wall time lands in stats as the refine phase.
func cknnClassify(cands []subregion.Candidate, k int, c verify.Constraint, opt KNNOptions, stats *Stats) []KNNAnswer {
	start := time.Now()
	defer func() { stats.RefineTime = time.Since(start) }()
	fk := stats.FMin
	// Analytic pre-verification (the RS rule generalized to k-NN): an
	// object is in the k-NN set only if its distance is at most f_k, so
	// Pr(X_i ∈ kNN) <= D_i(f_k). Candidates whose analytic upper bound
	// already fails the threshold skip the sampling phase entirely.
	preFailed := make([]bool, len(cands))
	preUpper := make([]float64, len(cands))
	active := 0
	for i, cand := range cands {
		preUpper[i] = cand.Dist.CDF(fk)
		if preUpper[i] < c.P {
			preFailed[i] = true
		} else {
			active++
		}
	}
	if active == 0 {
		out := make([]KNNAnswer, len(cands))
		for i, cand := range cands {
			b := verify.Bounds{L: 0, U: preUpper[i]}
			out[i] = KNNAnswer{ID: cand.ID, Bounds: b, Status: verify.Fail}
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		return out
	}

	// With IDs, each candidate draws from its own stable-ID-seeded stream and
	// rank ties break by stable ID, so the tallies are invariant under dense
	// slot relabeling; otherwise one shared stream in slot order (the original
	// single-shot behavior, kept for compatibility with recorded baselines).
	var rng *rand.Rand
	var rngs []*rand.Rand
	if opt.IDs == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	} else {
		rngs = make([]*rand.Rand, len(cands))
		for i, cand := range cands {
			rngs[i] = rand.New(rand.NewSource(mixSeed(opt.Seed, opt.IDs[cand.ID])))
		}
	}
	counts := make([]int, len(cands))
	dists := make([]float64, len(cands))
	idx := make([]int, len(cands))
	less := func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] }
	if opt.IDs != nil {
		less = func(a, b int) bool {
			da, db := dists[idx[a]], dists[idx[b]]
			if da != db {
				return da < db
			}
			return opt.IDs[cands[idx[a]].ID] < opt.IDs[cands[idx[b]].ID]
		}
	}
	for s := 0; s < opt.Samples; s++ {
		for i, cand := range cands {
			if rngs != nil {
				dists[i] = cand.Dist.Sample(rngs[i])
			} else {
				dists[i] = cand.Dist.Sample(rng)
			}
			idx[i] = i
		}
		sort.Slice(idx, less)
		top := k
		if top > len(idx) {
			top = len(idx)
		}
		for _, i := range idx[:top] {
			counts[i]++
		}
	}

	out := make([]KNNAnswer, len(cands))
	for i, cand := range cands {
		if preFailed[i] {
			out[i] = KNNAnswer{
				ID:     cand.ID,
				Bounds: verify.Bounds{L: 0, U: preUpper[i]},
				Status: verify.Fail,
			}
			continue
		}
		p := float64(counts[i]) / float64(opt.Samples)
		sigma := 4 * sampleSigma(p, opt.Samples)
		b := verify.Bounds{L: clamp01(p - sigma), U: clamp01(p + sigma)}
		// The analytic bound may beat the sampling bound; intersect.
		if preUpper[i] < b.U {
			b.U = preUpper[i]
			if b.L > b.U {
				b.L = b.U
			}
		}
		out[i] = KNNAnswer{ID: cand.ID, Bounds: b, Status: verify.Classify(b, c)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// mixSeed derives a per-object RNG seed from the query seed and a stable ID
// (splitmix64 finalizer), decorrelating the per-candidate sample streams.
func mixSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func sampleSigma(p float64, n int) float64 {
	v := p * (1 - p) / float64(n)
	if v <= 0 {
		// Zero or full tallies still carry sampling error ~1/n.
		return 1 / float64(n)
	}
	return math.Sqrt(v)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
