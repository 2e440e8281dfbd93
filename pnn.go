// Package pnn evaluates probabilistic nearest-neighbor queries over
// uncertain one-dimensional data, reproducing "Probabilistic Verifiers:
// Evaluating Constrained Nearest-Neighbor Queries over Uncertain Data"
// (Cheng, Chen, Mokbel, Chow — ICDE 2008).
//
// An uncertain object is a closed interval (its uncertainty region) plus a
// probability density over it. A Probabilistic Nearest-Neighbor query (PNN)
// returns each object's qualification probability — the chance it is the
// nearest neighbor of a query point. The Constrained PNN (C-PNN) adds a
// probability threshold P and tolerance Δ, letting the engine answer with
// cheap probability bounds instead of exact integrals: candidates are pruned
// by an R-tree filter, reduced to distance distributions by a shared
// derivation stage (per-candidate folds serving both the 1-D and 2-D
// engines, with query-independent discretizations of analytic pdfs
// memoized across queries), bounded by the RS / L-SR / U-SR probabilistic
// verifiers, and only the stragglers reach incremental refinement.
//
// Quickstart:
//
//	ds := pnn.NewDataset([]pnn.PDF{
//		pnn.MustUniform(8, 18),
//		pnn.MustUniform(9, 13),
//	})
//	eng, err := pnn.New(ds)
//	if err != nil { ... }
//	res, err := eng.CPNN(12, pnn.Constraint{P: 0.3, Delta: 0.01}, pnn.Options{})
//	for _, a := range res.Answers {
//		fmt.Println(a.ID, a.Bounds)
//	}
//
// The package is the paper's engine as a library, over the building blocks
// in internal/: the query engine (internal/core), verifiers
// (internal/verify), subregion tables (internal/subregion), distance
// distributions (internal/dist), the R-tree (internal/rtree) and refinement
// integrators (internal/refine). The serving layers (HTTP server, durable
// store, monitors, replication, sharding) are internal to the module; see
// cmd/cpnn-serve and the examples.
package pnn

import (
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Engine answers PNN, C-PNN, min/max and constrained k-NN queries over one
// dataset. Create one with New.
type Engine = core.Engine

// New indexes a dataset and returns a query engine.
func New(ds *Dataset) (*Engine, error) { return core.NewEngine(ds) }

// Core query types, re-exported from the engine.
type (
	// Options tunes query evaluation; the zero value uses the paper's
	// defaults (VR strategy, RS → L-SR → U-SR chain, 300-bar histograms).
	Options = core.Options
	// Result is a C-PNN answer set with statistics.
	Result = core.Result
	// Answer is one classified object of a result.
	Answer = core.Answer
	// Stats records per-phase query costs.
	Stats = core.Stats
	// Strategy selects the evaluation method.
	Strategy = core.Strategy
	// Probability pairs an object ID with its exact qualification
	// probability (PNN output).
	Probability = core.Probability
	// KNNOptions tunes constrained k-NN evaluation.
	KNNOptions = core.KNNOptions
	// KNNAnswer is one object of a constrained k-NN result.
	KNNAnswer = core.KNNAnswer
)

// Evaluation strategies (paper §V).
const (
	// StrategyVR runs verification then incremental refinement — the
	// paper's solution and the default.
	StrategyVR = core.VR
	// StrategyRefine skips verification.
	StrategyRefine = core.Refine
	// StrategyBasic computes every candidate's exact probability.
	StrategyBasic = core.Basic
)

// Constraint and classification types, re-exported from the verifier layer.
type (
	// Constraint carries the C-PNN threshold P ∈ (0,1] and tolerance
	// Δ ∈ [0,1] of Definition 1.
	Constraint = verify.Constraint
	// Bounds is a closed probability bound [L, U].
	Bounds = verify.Bounds
	// Status is a classifier label.
	Status = verify.Status
	// Verifier is one bound-tightening pass; see DefaultVerifiers.
	Verifier = verify.Verifier
)

// Classifier labels.
const (
	// StatusUnknown means the bounds cannot yet decide the object.
	StatusUnknown = verify.Unknown
	// StatusSatisfy means the object is part of the answer.
	StatusSatisfy = verify.Satisfy
	// StatusFail means the object can never satisfy the query.
	StatusFail = verify.Fail
)

// DefaultVerifiers returns the paper's verifier chain: RS, L-SR, U-SR, in
// ascending cost order.
func DefaultVerifiers() []Verifier { return verify.DefaultChain() }

// Data-model types, re-exported from the uncertainty layer.
type (
	// Dataset is an immutable collection of uncertain objects.
	Dataset = uncertain.Dataset
	// Object is one uncertain value: an uncertainty region with a pdf.
	Object = uncertain.Object
	// GenOptions configures the synthetic dataset generators.
	GenOptions = uncertain.GenOptions
	// PDF is a probability density over a closed interval.
	PDF = pdf.PDF
	// Uniform is the uniform density over an interval.
	Uniform = pdf.Uniform
	// TruncGaussian is a Gaussian truncated to an interval.
	TruncGaussian = pdf.TruncGaussian
	// Histogram is a piecewise-constant density.
	Histogram = pdf.Histogram
)

// NewDataset builds a dataset from pdfs, assigning sequential IDs.
func NewDataset(pdfs []PDF) *Dataset { return uncertain.NewDataset(pdfs) }

// NewUniform returns the uniform pdf over [lo, hi].
func NewUniform(lo, hi float64) (Uniform, error) { return pdf.NewUniform(lo, hi) }

// MustUniform is NewUniform that panics on error, for literals and tests.
func MustUniform(lo, hi float64) Uniform { return pdf.MustUniform(lo, hi) }

// NewGaussian returns a Gaussian with the given mean and standard deviation
// truncated to [lo, hi].
func NewGaussian(lo, hi, mu, sigma float64) (TruncGaussian, error) {
	return pdf.NewTruncGaussian(lo, hi, mu, sigma)
}

// PaperGaussian returns the paper's §V.5 Gaussian parameterization: mean at
// the region center, sigma = width/6.
func PaperGaussian(lo, hi float64) (TruncGaussian, error) { return pdf.PaperGaussian(lo, hi) }

// NewHistogram builds a histogram pdf from bin edges and non-negative bin
// weights (normalized to unit mass).
func NewHistogram(edges, weights []float64) (*Histogram, error) {
	return pdf.NewHistogram(edges, weights)
}

// GenerateUniform generates a synthetic dataset of uniform-pdf objects.
func GenerateUniform(opt GenOptions) (*Dataset, error) { return uncertain.GenerateUniform(opt) }

// GenerateGaussian generates a synthetic dataset of truncated-Gaussian
// objects discretized to the given number of histogram bars.
func GenerateGaussian(opt GenOptions, bars int) (*Dataset, error) {
	return uncertain.GenerateGaussian(opt, bars)
}

// LongBeachOptions mirrors the paper's Long Beach workload: 53,144 intervals
// over a 10K-unit dimension, calibrated to the paper's ~96-object candidate
// sets.
func LongBeachOptions(seed int64) GenOptions { return uncertain.LongBeachOptions(seed) }

// QueryWorkload returns n deterministic query points over the generation
// domain.
func QueryWorkload(n int, domain float64, seed int64) []float64 {
	return uncertain.QueryWorkload(n, domain, seed)
}

// ReadQueries parses a query-workload file (one finite point per line, '#'
// comments allowed) — the format of cpnn-query -batch.
func ReadQueries(r io.Reader) ([]float64, error) { return uncertain.ReadQueries(r) }

// WriteQueries serializes a query workload, one point per line.
func WriteQueries(w io.Writer, qs []float64) error { return uncertain.WriteQueries(w, qs) }

// Two-dimensional support (the paper's §IV-A extension): disk-shaped
// uncertainty regions reduce to distance pdfs and run the same pipeline as
// the 1-D engine, under the same Options.
type (
	// Engine2D answers C-PNN queries over planar uncertain objects: CPNN,
	// and PNN, with a Point for the query.
	Engine2D = core.Engine2D
	// Object2D is a disk-shaped uncertain object.
	Object2D = core.Object2D
	// Point is a point in the plane.
	Point = geom.Point
	// Circle is a disk-shaped uncertainty region.
	Circle = geom.Circle
)

// New2D indexes planar uncertain objects and returns a 2-D query engine.
func New2D(objs []Object2D) (*Engine2D, error) { return core.NewEngine2D(objs) }
