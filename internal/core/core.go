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
// Basic and Refine are the baselines of the paper's Figures 9, 10 and 14;
// the stateless entry points run them, the incremental ones run VR only.
//
// It also answers plain PNN queries (exact probabilities for the whole
// candidate set), probabilistic min/max queries (PNN with q at −∞/+∞, per the
// paper's introduction), and constrained probabilistic k-NN queries — the
// paper's stated future work — exactly, over a subregion table cut at f_k.
//
// # One pipeline
//
// The paper's method touches an uncertain object only through its near and
// far points (the filter) and its distance pdf (everything after), so the
// sequence filter → derive → subregion table → verify → refine is written
// once, in pipeline[Q] (pipeline.go), over the unexported source[Q] seam:
// check a query point, list the candidates at filter depth k with the cut
// f_k (f_min at k = 1), name a candidate's ID, derive its distance pdf. The
// seam is asked once per query and once per candidate; folds, verifiers and
// refinement never see it.
//
// A query orders its candidates once. The 1-D source lists them
// ID-ascending, the 2-D source in R-tree order; the subregion table sorts
// its rows by near point and ranks each by ID as it does (Table.IDRank), and
// collect and knnClassify write row i's answer at that rank, so Result and
// CKNN answers come out in ID order with no sort of their own.
//
//   - Engine (Q = float64) adds source1D — dense IDs, the filter.Index R-tree,
//     interval folds behind the discretization memo — and what needs the
//     dataset itself: Min/Max, CKNN, and the incremental entry points of
//     incremental.go, whose prepare step is the pipeline's stateful
//     counterpart (same phases, folds kept in an EvalState, the table
//     rebuilt on a pooled scratch).
//   - Engine2D (Q = geom.Point) adds source2D — disks, a bounding-box R-tree,
//     the lens-area reduction — and nothing else.
//
// A candidate is therefore filtered in one place (source.candidates, or
// incrementalFilter for a stateful query), derived in one (pipeline.derive /
// Engine.cacheFold, both through source.dist) and classified in one
// (finishVerifyRefine, or refine.ExactAll under exactAll and knnClassify,
// each called by the pipeline and by its incremental counterpart; cpnnBasic,
// the Basic baseline, by the pipeline alone). A per-candidate explanation — which verifier or refinement
// step decided an object — belongs in finishVerifyRefine next to
// Stats.UnknownAfter; a request context belongs in pipeline.prepare and
// incrementalPrepare, checked between phases.
//
// # One scratch, one pool
//
// Every stateless query filters and derives its candidates in-line, one
// after another, into a queryScratch — filter hit list, candidate buffer,
// subregion table, fold arena — that it borrows from scratchPool
// (scratch.go), the only place a query gets one. A standing query's
// incremental evaluation borrows one the same way and assembles its cached
// folds on it; its EvalState holds no table. release caps what an idle
// scratch keeps at 1 MiB, so single queries and the monitor's evaluations
// obey one limit. Core starts no goroutines:
// every entry point runs on its caller's goroutine, and a caller with many
// query points fans them out itself (cpnn-query -batch, the server's
// /v1/batch).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// dataset. CPNN and PNN are the embedded pipeline's; the engine
// adds what needs the dataset itself: min/max queries, the exact
// constrained k-NN, and the incremental entry points (incremental.go).
type Engine struct {
	pipeline[float64]
	source1D
}

// source1D is the pipeline's view of a 1-D dataset: hits name dense dataset
// IDs, the filter is the dataset's filter.Index (an R-tree, or a scan over a
// gathered mini-view), and distance pdfs are interval folds — of a uniform
// object straight from its hit's region, of any other through the deriver's
// discretization memo.
type source1D struct {
	ds   *uncertain.Dataset
	ix   *filter.Index
	memo deriver
}

func (s *source1D) check(q float64) error { return checkQuery(q) }

// candidates filters at depth k off the R-tree: f_k is the k-th smallest
// far point, by the best-first walk, and the candidates are the objects
// whose near point does not exceed it, by the window search (an object
// beyond f_k has k objects certainly closer). At k = 1 both are
// Index.AppendCandidates. Hits name dense IDs, which the window search
// appends ascending.
func (s *source1D) candidates(q float64, k int, buf []filter.Hit) ([]filter.Hit, float64) {
	if k == 1 {
		return s.ix.AppendCandidates(buf, q)
	}
	fars := s.ix.FarBounds(q, k)
	if len(fars) == 0 {
		return buf, 0
	}
	fk := fars[len(fars)-1]
	return s.ix.AppendWithin(buf, q, fk), fk
}

func (s *source1D) id(h filter.Hit) int { return h.ID }

// dist folds a uniform object from the region its hit carries — the same
// float operations dist.FromPDFIn applies to its pdf, without loading the
// object record or dereferencing its boxed pdf — and derives any other
// through the memo.
func (s *source1D) dist(h filter.Hit, q float64, bins int, a *pdf.Alloc) (*pdf.Histogram, error) {
	if s.ds.Uniform(h.ID) {
		return dist.FromUniformIn(a, h.Region, q)
	}
	return s.memo.distFor(s.ds.Object(h.ID), q, bins, a)
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
	e := &Engine{source1D: source1D{ds: ds, ix: ix}}
	e.pipeline = pipeline[float64]{src: &e.source1D}
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
	// TableTime is the subregion-table share of InitTime, so InitTime −
	// TableTime is derivation alone. The stateless and the incremental entry
	// points alike build the table once, after derivation, and time that.
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
	var (
		bounds []verify.Bounds
		status []verify.Status
		prior  refine.Prior = refine.TrivialPrior{}
	)
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
	} else {
		bounds = make([]verify.Bounds, n)
		status = make([]verify.Status, n)
		for i := range bounds {
			bounds[i] = verify.Bounds{L: 0, U: 1}
		}
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		if status[i] != verify.Unknown {
			continue
		}
		r, err := refine.Incremental(table, i, c, bounds[i], prior)
		if err != nil {
			return nil, err
		}
		bounds[i], status[i] = r.Bounds, r.Status
		res.Stats.RefinedObjects++
		res.Stats.Integrations += r.Integrations
	}
	res.Stats.RefineTime = time.Since(start)

	collect(res, table.IDs(), table.IDRank, bounds, status)
	return res, nil
}

// exactAll finishes a PNN: every candidate's exact probability from
// refine.ExactAll at k = 1, ordered by descending probability, ties by ID.
// It is shared by PNN and PNNIncremental, so both produce identical orderings.
func exactAll(table *subregion.Table, st *Stats) ([]Probability, error) {
	start := time.Now()
	probs, err := refine.ExactAll(table)
	if err != nil {
		return nil, err
	}
	st.RefineTime = time.Since(start)
	st.RefinedObjects = len(probs)
	out := make([]Probability, len(probs))
	for i, p := range probs {
		out[i] = Probability{ID: table.IDs()[i], P: p}
	}
	slices.SortFunc(out, func(a, b Probability) int {
		return cmp.Or(cmp.Compare(b.P, a.P), cmp.Compare(a.ID, b.ID))
	})
	return out, nil
}

// cpnnBasic finishes a query under the Basic strategy: exact integration for
// every candidate, then thresholding. Only the stateless pipeline runs it.
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
	collect(res, ids, idRanks(ids), bounds, status)
	return res, nil
}

// idRanks returns the rank function collect lists rows by when there is no
// table to ask: each row's position in ID order, by one sort of the row
// indices. Only the Basic baseline needs it, whose integration dwarfs the
// sort; the 1-D source's rows are already ascending, the 2-D source's in
// R-tree order.
func idRanks(ids []int) func(i int) int {
	rows := make([]int, len(ids))
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	rank := make([]int, len(ids))
	for r, i := range rows {
		rank[i] = r
	}
	return func(i int) int { return rank[i] }
}

// collect fills a Result's answer slices in object-ID order without sorting:
// row i's answer lands at rank(i), its ID's position among the candidate IDs
// in ascending order. Answers inherit the order by filtering afterwards.
func collect(res *Result, ids []int, rank func(i int) int, bounds []verify.Bounds, status []verify.Status) {
	res.Candidates = make([]Answer, len(ids))
	for i, id := range ids {
		res.Candidates[rank(i)] = Answer{ID: id, Bounds: bounds[i], Status: status[i]}
	}
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

// KNNOptions tunes constrained k-NN evaluation.
type KNNOptions struct {
	// K is the neighbor count; it must be at least 1.
	K int
	// Bins is the discretization resolution for analytic pdfs; 0 means
	// dist.DefaultBins.
	Bins int
}

// KNNAnswer is one object of a constrained k-NN result. Its Bounds are a
// point bound: the object's exact probability of being among the k nearest
// neighbors.
type KNNAnswer = Answer

// CKNN evaluates a constrained probabilistic k-nearest-neighbor query — the
// paper's stated future work, answered as its EDBT 2009 follow-up does. The
// filter keeps the objects whose near point does not exceed f_k, the k-th
// smallest far point (the natural generalization of the RS pruning rule),
// the subregion table is cut at f_k, and refine.ExactAll integrates every
// candidate's probability of being among the k nearest exactly. Objects are
// classified by that point bound with the same Definition 1 rules as the
// C-PNN. The returned Stats expose the candidate count and the critical
// distance f_k (Stats.FMin).
func (e *Engine) CKNN(q float64, c verify.Constraint, opt KNNOptions) ([]KNNAnswer, Stats, error) {
	var st Stats
	k, err := e.knnBegin(q, c, &opt)
	if err != nil || k == 0 {
		return nil, st, err
	}
	if k == e.ds.Len() {
		return e.knnCertain(q, k, c, &st), st, nil
	}
	sc := borrow()
	defer sc.park()
	_, table, err := e.prepare(q, k, opt.Bins, true, sc, &st)
	if err != nil || table == nil {
		return nil, st, err
	}
	out, err := knnClassify(table, c, &st)
	return out, st, err
}

// knnBegin is the entry check CKNN and KNNIncremental share: a valid
// constraint, a finite query point and K >= 1, with the Bins default filled
// into opt. It returns the effective neighbor count min(K, n), which is 0
// exactly when the dataset is empty and the answer therefore is.
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
	if opt.Bins == 0 {
		opt.Bins = dist.DefaultBins
	}
	return min(opt.K, e.ds.Len()), nil
}

// knnCertain answers CKNN and KNNIncremental when k is the dataset size:
// every object gets the point bound [1, 1], without a table, whose |C|·M
// floats would grow with the square of the dataset. The candidates come
// ID-ascending, so the answers do.
func (e *Engine) knnCertain(q float64, k int, c verify.Constraint, st *Stats) []KNNAnswer {
	start := time.Now()
	hits, cut := e.candidates(q, k, nil)
	st.FilterTime = time.Since(start)
	st.Candidates, st.FMin = len(hits), cut
	b := verify.Bounds{L: 1, U: 1}
	out := make([]KNNAnswer, len(hits))
	for i, h := range hits {
		out[i] = KNNAnswer{ID: e.id(h), Bounds: b, Status: verify.Classify(b, c)}
	}
	return out
}

// knnClassify finishes a constrained k-NN over a table cut at f_k, shared by
// CKNN and KNNIncremental: every candidate's exact k-NN probability
// (refine.ExactAll) as a point bound, classified by Definition 1, listed by
// ID (row i at table.IDRank(i)). Its wall time lands in st as the refine
// phase.
func knnClassify(table *subregion.Table, c verify.Constraint, st *Stats) ([]KNNAnswer, error) {
	start := time.Now()
	probs, err := refine.ExactAll(table)
	if err != nil {
		return nil, err
	}
	out := make([]KNNAnswer, len(probs))
	for i, p := range probs {
		b := verify.Bounds{L: p, U: p}
		out[table.IDRank(i)] = KNNAnswer{ID: table.IDs()[i], Bounds: b, Status: verify.Classify(b, c)}
	}
	st.RefineTime = time.Since(start)
	st.RefinedObjects = len(out)
	return out, nil
}
