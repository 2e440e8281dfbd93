// Package uncertain defines the uncertain-object data model of the C-PNN
// engine and the synthetic dataset generators used by the experiments.
//
// An uncertain object follows the attribute-uncertainty model of the paper:
// its value is unknown but lies in a closed one-dimensional uncertainty
// region, distributed according to a pdf whose mass inside the region is one.
// Datasets are flat collections of such objects; the experiment workloads
// (§V-A) are generated here, including the Long-Beach-like interval set.
package uncertain

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// Object is an uncertain one-dimensional value: an uncertainty region with a
// pdf over it. The region is the pdf's support.
type Object struct {
	// ID identifies the object within its dataset.
	ID int
	// PDF is the uncertainty distribution; its support is the uncertainty
	// region of the object.
	PDF pdf.PDF
}

// Region returns the object's uncertainty region.
func (o Object) Region() geom.Interval { return o.PDF.Support() }

// Source supplies objects by dense ID without requiring them to be resident:
// Region must be cheap metadata (the store keeps support intervals in
// memory), while PDF may fault the payload in from disk. A Dataset backed by
// a Source is how the engine serves datasets larger than the page-cache
// budget.
type Source interface {
	Len() int
	Region(i int) geom.Interval
	PDF(i int) pdf.PDF
}

// Dataset is an immutable collection of uncertain objects with dense IDs
// 0..Len()-1, either fully materialized or backed by a Source.
type Dataset struct {
	objects []Object
	src     Source // nil when materialized
}

// NewDataset builds a dataset from pdfs, assigning sequential IDs.
func NewDataset(pdfs []pdf.PDF) *Dataset {
	objs := make([]Object, len(pdfs))
	for i, p := range pdfs {
		objs[i] = Object{ID: i, PDF: p}
	}
	return &Dataset{objects: objs}
}

// NewBackedDataset wraps a Source as a dataset. Objects are assembled on
// demand; Region never touches payloads.
func NewBackedDataset(src Source) *Dataset { return &Dataset{src: src} }

// Len returns the number of objects.
func (d *Dataset) Len() int {
	if d.src != nil {
		return d.src.Len()
	}
	return len(d.objects)
}

// Object returns the object with the given ID. On a Source-backed dataset
// this may fault the pdf payload in from disk; callers that only need the
// uncertainty region should use Region instead.
func (d *Dataset) Object(id int) Object {
	if d.src != nil {
		return Object{ID: id, PDF: d.src.PDF(id)}
	}
	return d.objects[id]
}

// Region returns the uncertainty region of the object with the given ID
// without touching its pdf payload — the accessor for filtering-phase scans.
func (d *Dataset) Region(id int) geom.Interval {
	if d.src != nil {
		return d.src.Region(id)
	}
	return d.objects[id].Region()
}

// Objects returns all objects as a slice; callers must not mutate it. On a
// Source-backed dataset this materializes every object (faulting all
// payloads) — iterate with Len/Region/Object when payloads aren't needed.
func (d *Dataset) Objects() []Object {
	if d.src != nil {
		objs := make([]Object, d.src.Len())
		for i := range objs {
			objs[i] = Object{ID: i, PDF: d.src.PDF(i)}
		}
		return objs
	}
	return d.objects
}

// Domain returns the interval spanned by all uncertainty regions.
func (d *Dataset) Domain() geom.Interval {
	n := d.Len()
	if n == 0 {
		return geom.Interval{}
	}
	dom := d.Region(0)
	for i := 1; i < n; i++ {
		dom = dom.Union(d.Region(i))
	}
	return dom
}

// Validate checks every object's pdf invariants. It is O(n · pdf checks) and
// intended for ingestion paths and tests.
func (d *Dataset) Validate() error {
	for i, n := 0, d.Len(); i < n; i++ {
		if err := pdf.Validate(d.Object(i).PDF); err != nil {
			return fmt.Errorf("uncertain: object %d: %w", i, err)
		}
	}
	return nil
}

// GenOptions configures the synthetic generators.
type GenOptions struct {
	// N is the number of objects.
	N int
	// Domain is the extent of the 1-D space; region left endpoints are
	// uniform over it (or clustered, see Clusters).
	Domain float64
	// Clusters, when positive, concentrates ClusterFrac of the objects in
	// Gaussian blobs around that many uniformly-placed centers — the
	// spatial skew of real road data such as the paper's Long Beach set.
	Clusters int
	// ClusterFrac is the fraction of objects placed in clusters (the rest
	// are uniform background); only used when Clusters > 0.
	ClusterFrac float64
	// ClusterSigma is the blob standard deviation; only used when
	// Clusters > 0.
	ClusterSigma float64
	// MeanLen is the mean uncertainty-region length.
	MeanLen float64
	// MinLen floors region lengths so no region is degenerate.
	MinLen float64
	// MaxLen caps region lengths.
	MaxLen float64
	// Seed makes generation deterministic.
	Seed int64
}

// LongBeachOptions mirrors the paper's Long Beach workload (§V-A): 53,144
// intervals distributed over a 10K-unit dimension with uniform pdfs. The
// length mix is right-skewed (exponential), calibrated so that the average
// candidate set of a random C-PNN holds roughly 96 objects, the figure the
// paper reports for its filtered candidate sets.
func LongBeachOptions(seed int64) GenOptions {
	return GenOptions{
		N:            53144,
		Domain:       10000,
		MeanLen:      13,
		MinLen:       0.5,
		MaxLen:       120,
		Clusters:     150,
		ClusterFrac:  0.97,
		ClusterSigma: 10,
		Seed:         seed,
	}
}

func (g GenOptions) validate() error {
	if g.N < 0 {
		return fmt.Errorf("uncertain: negative object count %d", g.N)
	}
	if !(g.Domain > 0) {
		return fmt.Errorf("uncertain: non-positive domain %g", g.Domain)
	}
	if !(g.MinLen > 0) || g.MaxLen < g.MinLen || g.MeanLen < g.MinLen || g.MeanLen > g.MaxLen {
		return fmt.Errorf("uncertain: inconsistent lengths min=%g mean=%g max=%g",
			g.MinLen, g.MeanLen, g.MaxLen)
	}
	if g.Clusters > 0 {
		if g.ClusterFrac < 0 || g.ClusterFrac > 1 {
			return fmt.Errorf("uncertain: cluster fraction %g outside [0, 1]", g.ClusterFrac)
		}
		if !(g.ClusterSigma > 0) {
			return fmt.Errorf("uncertain: non-positive cluster sigma %g", g.ClusterSigma)
		}
	}
	return nil
}

// regionStart draws a region left endpoint, honoring clustering. centers is
// nil for purely uniform placement.
func (g GenOptions) regionStart(rng *rand.Rand, centers []float64) float64 {
	if len(centers) == 0 || rng.Float64() >= g.ClusterFrac {
		return rng.Float64() * g.Domain
	}
	c := centers[rng.Intn(len(centers))]
	for {
		x := c + rng.NormFloat64()*g.ClusterSigma
		if x >= 0 && x <= g.Domain {
			return x
		}
	}
}

// clusterCenters places the generator's cluster centers, or returns nil when
// clustering is disabled.
func (g GenOptions) clusterCenters(rng *rand.Rand) []float64 {
	if g.Clusters <= 0 {
		return nil
	}
	centers := make([]float64, g.Clusters)
	for i := range centers {
		centers[i] = rng.Float64() * g.Domain
	}
	return centers
}

// GenerateUniform generates a dataset of uniform-pdf objects whose region
// lengths follow a truncated exponential distribution with the configured
// mean — the skew typical of TIGER line-segment data.
func GenerateUniform(opt GenOptions) (*Dataset, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	centers := opt.clusterCenters(rng)
	pdfs := make([]pdf.PDF, opt.N)
	for i := range pdfs {
		lo := opt.regionStart(rng, centers)
		u, err := pdf.NewUniform(lo, lo+opt.regionLen(rng))
		if err != nil {
			return nil, err
		}
		pdfs[i] = u
	}
	return NewDataset(pdfs), nil
}

// GenerateGaussian generates a dataset with the same region geometry as
// GenerateUniform but truncated-Gaussian pdfs in the paper's §V.5
// parameterization (mean at the region center, sigma = width/6), discretized
// to the given number of histogram bars (the paper uses 300).
func GenerateGaussian(opt GenOptions, bars int) (*Dataset, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if bars < 1 {
		return nil, fmt.Errorf("uncertain: need at least one histogram bar, got %d", bars)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	centers := opt.clusterCenters(rng)
	pdfs := make([]pdf.PDF, opt.N)
	for i := range pdfs {
		lo := opt.regionStart(rng, centers)
		hi := lo + opt.regionLen(rng)
		g, err := pdf.PaperGaussian(lo, hi)
		if err != nil {
			return nil, err
		}
		h, err := pdf.Discretize(g, bars)
		if err != nil {
			return nil, err
		}
		pdfs[i] = h
	}
	return NewDataset(pdfs), nil
}

// GenerateGaussianAnalytic is GenerateGaussian without pre-discretization:
// objects carry analytic truncated-Gaussian pdfs and the query engine
// discretizes only the per-query candidates. This keeps paper-scale Gaussian
// datasets (53k objects) small in memory while preserving the §V.5 workload.
func GenerateGaussianAnalytic(opt GenOptions) (*Dataset, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	centers := opt.clusterCenters(rng)
	pdfs := make([]pdf.PDF, opt.N)
	for i := range pdfs {
		lo := opt.regionStart(rng, centers)
		hi := lo + opt.regionLen(rng)
		g, err := pdf.PaperGaussian(lo, hi)
		if err != nil {
			return nil, err
		}
		pdfs[i] = g
	}
	return NewDataset(pdfs), nil
}

// GenerateHistogram generates objects with arbitrary (random) histogram pdfs
// over their regions — the "histogram between 10°C and 20°C" shape of the
// paper's Fig. 1(b). Each object gets a random number of bars in [2, maxBars]
// with random positive weights.
func GenerateHistogram(opt GenOptions, maxBars int) (*Dataset, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if maxBars < 2 {
		return nil, fmt.Errorf("uncertain: maxBars %d < 2", maxBars)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	pdfs := make([]pdf.PDF, opt.N)
	for i := range pdfs {
		lo := rng.Float64() * opt.Domain
		hi := lo + opt.regionLen(rng)
		bars := 2 + rng.Intn(maxBars-1)
		edges := make([]float64, bars+1)
		weights := make([]float64, bars)
		for b := 0; b <= bars; b++ {
			edges[b] = lo + (hi-lo)*float64(b)/float64(bars)
		}
		for b := range weights {
			// Strictly positive weights keep densities non-zero throughout
			// the region, matching the paper's standing assumption.
			weights[b] = 0.1 + rng.Float64()
		}
		h, err := pdf.NewHistogram(edges, weights)
		if err != nil {
			return nil, err
		}
		pdfs[i] = h
	}
	return NewDataset(pdfs), nil
}

// regionLen draws a truncated-exponential region length.
func (g GenOptions) regionLen(rng *rand.Rand) float64 {
	for {
		l := g.MinLen + rng.ExpFloat64()*(g.MeanLen-g.MinLen)
		if l <= g.MaxLen {
			return l
		}
	}
}

// QueryWorkload returns n deterministic query points uniform over the
// dataset generation domain, avoiding the extreme 5% margins so queries are
// surrounded by data on both sides, as in the paper's random-query setup.
func QueryWorkload(n int, domain float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]float64, n)
	margin := domain * 0.05
	for i := range qs {
		qs[i] = margin + rng.Float64()*(domain-2*margin)
	}
	return qs
}

// WriteTo serializes the dataset in a line-oriented text format:
// one object per line, "lo hi" for uniform pdfs or
// "hist e0 e1 ... ek | w0 ... wk-1" for histogram pdfs.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	for _, o := range d.objects {
		switch p := o.PDF.(type) {
		case pdf.Uniform:
			sup := p.Support()
			if err := count(fmt.Fprintf(bw, "%g %g\n", sup.Lo, sup.Hi)); err != nil {
				return written, err
			}
		case *pdf.Histogram:
			var sb strings.Builder
			sb.WriteString("hist")
			for _, e := range p.Edges() {
				fmt.Fprintf(&sb, " %g", e)
			}
			sb.WriteString(" |")
			for i := 0; i < p.NumBins(); i++ {
				fmt.Fprintf(&sb, " %g", p.BinMass(i))
			}
			sb.WriteByte('\n')
			if err := count(bw.WriteString(sb.String())); err != nil {
				return written, err
			}
		default:
			return written, fmt.Errorf("uncertain: cannot serialize pdf type %T", p)
		}
	}
	return written, bw.Flush()
}

// Read parses a dataset in the WriteTo format.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pdfs []pdf.PDF
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "hist" {
			sep := -1
			for i, f := range fields {
				if f == "|" {
					sep = i
					break
				}
			}
			if sep < 0 {
				return nil, fmt.Errorf("uncertain: line %d: histogram missing separator", line)
			}
			edges, err := parseFloats(fields[1:sep])
			if err != nil {
				return nil, fmt.Errorf("uncertain: line %d: %w", line, err)
			}
			weights, err := parseFloats(fields[sep+1:])
			if err != nil {
				return nil, fmt.Errorf("uncertain: line %d: %w", line, err)
			}
			h, err := pdf.NewHistogram(edges, weights)
			if err != nil {
				return nil, fmt.Errorf("uncertain: line %d: %w", line, err)
			}
			pdfs = append(pdfs, h)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("uncertain: line %d: want 'lo hi', got %q", line, text)
		}
		vals, err := parseFloats(fields)
		if err != nil {
			return nil, fmt.Errorf("uncertain: line %d: %w", line, err)
		}
		u, err := pdf.NewUniform(vals[0], vals[1])
		if err != nil {
			return nil, fmt.Errorf("uncertain: line %d: %w", line, err)
		}
		pdfs = append(pdfs, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewDataset(pdfs), nil
}

// WriteQueries serializes a query workload in the engine's text format: one
// query point per line.
func WriteQueries(w io.Writer, qs []float64) error {
	bw := bufio.NewWriter(w)
	for _, q := range qs {
		if _, err := fmt.Fprintf(bw, "%g\n", q); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadQueries parses a query workload: one finite float per line, with blank
// lines and '#' comments skipped — the format consumed by cpnn-query -batch.
func ReadQueries(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var qs []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("uncertain: query line %d: parsing %q: %w", line, text, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("uncertain: query line %d: non-finite query point %q", line, text)
		}
		qs = append(qs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return qs, nil
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", f, err)
		}
		out[i] = v
	}
	return out, nil
}
