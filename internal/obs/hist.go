package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets spans the query-latency range this engine lives in: tens of
// microseconds for a warm cache hit up to seconds for a cold scan of a
// large dataset.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// LagBuckets suits replica apply-lag and monitor push-latency observations:
// sub-millisecond when healthy, up to a minute when a follower is
// re-bootstrapping.
var LagBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// FanoutBuckets counts members contacted per scatter-gather query.
var FanoutBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// Histogram is a fixed-bucket Prometheus histogram with lock-free
// observation. The zero value is unusable; construct with NewHistogram or
// HistogramVec.With. All methods are safe on nil.
type Histogram struct {
	name    string
	help    string
	labels  string // pre-rendered `k="v",...` (no braces), "" when unlabeled
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

// NewHistogram returns an unlabeled histogram. buckets must be sorted
// ascending; nil means DefBuckets.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{
		name:    name,
		help:    help,
		buckets: buckets,
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value (seconds for latency histograms). Safe on nil;
// NaN and negative values are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// WritePrometheus renders the full family in text exposition format.
func (h *Histogram) WritePrometheus(w io.Writer) {
	if h == nil {
		return
	}
	writeHeader(w, h.name, h.help, "histogram")
	h.writeSeries(w)
}

// writeSeries renders the _bucket/_sum/_count series without the header
// (HistogramVec shares one header across children).
func (h *Histogram) writeSeries(w io.Writer) {
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, h.labelPrefix(), formatBound(ub), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, h.labelPrefix(), cum)
	sum := math.Float64frombits(h.sumBits.Load())
	if h.labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", h.name, sum)
		fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", h.name, h.labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", h.name, h.labels, h.count.Load())
	}
}

func (h *Histogram) labelPrefix() string {
	if h.labels == "" {
		return ""
	}
	return h.labels + ","
}

// formatBound renders a bucket upper bound the way Prometheus clients do:
// shortest round-trippable decimal.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramVec is a histogram family partitioned by a fixed label set.
// Children are created on first With and rendered under one shared
// HELP/TYPE header. Safe on nil.
type HistogramVec struct {
	name       string
	help       string
	labelNames []string
	buckets    []float64

	mu       sync.RWMutex
	children map[string]*Histogram
	order    []string // insertion order for stable rendering
}

// NewHistogramVec returns a labeled histogram family. buckets nil means
// DefBuckets.
func NewHistogramVec(name, help string, labelNames []string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		buckets:    buckets,
		children:   make(map[string]*Histogram),
	}
}

// With returns the child for the given label values (one per label name, in
// order), creating it on first use. Safe on nil (returns nil, whose Observe
// is a no-op).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	var b strings.Builder
	for i, name := range v.labelNames {
		val := ""
		if i < len(values) {
			val = values[i]
		}
		writeLabel(&b, name, val)
	}
	key := b.String()
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h != nil {
		return h
	}
	h = NewHistogram(v.name, v.help, v.buckets)
	h.labels = key
	v.children[key] = h
	v.order = append(v.order, key)
	return h
}

// WritePrometheus renders every child under one family header. A vec with
// no children renders nothing (an empty family is indistinguishable from an
// absent one). Safe on nil.
func (v *HistogramVec) WritePrometheus(w io.Writer) {
	if v == nil {
		return
	}
	v.mu.RLock()
	order := append([]string(nil), v.order...)
	children := make([]*Histogram, 0, len(order))
	for _, key := range order {
		children = append(children, v.children[key])
	}
	v.mu.RUnlock()
	if len(children) == 0 {
		return
	}
	writeHeader(w, v.name, v.help, "histogram")
	for _, h := range children {
		h.writeSeries(w)
	}
}

// Collector is anything that renders Prometheus text format.
type Collector interface {
	WritePrometheus(w io.Writer)
}

// Registry is an ordered list of collectors; a /metrics handler renders one
// and nothing else. A Registry is itself a Collector, so a caller's registry
// can be appended to a server's own. Safe on nil.
type Registry struct {
	mu sync.Mutex
	cs []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Safe on nil registry; nil collectors are
// ignored.
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.cs = append(r.cs, c)
	r.mu.Unlock()
}

// WritePrometheus renders every registered collector in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	cs := append([]Collector(nil), r.cs...)
	r.mu.Unlock()
	for _, c := range cs {
		c.WritePrometheus(w)
	}
}
