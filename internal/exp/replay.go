package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// ReplayConfig drives a workload replay: a recorded (or generated) stream of
// query points evaluated against one dataset, once as sequential singles and
// once through the batch path at each requested batch size.
type ReplayConfig struct {
	// Dataset is the dataset to serve.
	Dataset *uncertain.Dataset
	// Queries is the recorded query workload.
	Queries []float64
	// BatchSizes lists the batch sizes to replay; empty means 1, 8, 64, 512.
	BatchSizes []int
	// Workers caps the batch worker pool; 0 means GOMAXPROCS.
	Workers int
	// Constraint is the C-PNN constraint; the zero value means the paper's
	// P=0.3, Δ=0.01.
	Constraint verify.Constraint
	// Strategy is the evaluation strategy (default VR).
	Strategy core.Strategy
}

// ReplayRow is the measured outcome of one batch size.
type ReplayRow struct {
	// BatchSize is the number of queries per CPNNBatch call (1 = the
	// loop-of-singles baseline).
	BatchSize int
	// Total is the wall time to drain the whole workload.
	Total time.Duration
	// P50, P95 and P99 are per-query completion latencies: a query finishes
	// when its batch does, so latency is its batch's wall time.
	P50, P95, P99 time.Duration
	// Ratio is singles total time over this size's total.
	Ratio float64
	// AllocsPerQuery counts heap allocations per query at this batch size.
	AllocsPerQuery float64
	// FilterTime, DeriveTime and VerifyTime split the engine time into the
	// paper's evaluation phases (filtering, bound derivation,
	// verification+refinement — core.Stats.PhaseDurations), summed over the
	// whole workload at this batch size.
	FilterTime, DeriveTime, VerifyTime time.Duration
}

// ReplayReport is the outcome of a workload replay.
type ReplayReport struct {
	Queries int
	Answers int
	Rows    []ReplayRow
}

// Replay runs the workload at every batch size and reports latency
// percentiles and amortization ratios against the sequential-singles
// baseline. Answer sets are identical across sizes by construction (the
// batch path shares the single-query evaluation code); Replay cross-checks
// the total answer count to make sure.
func Replay(cfg ReplayConfig) (*ReplayReport, error) {
	if cfg.Dataset == nil || cfg.Dataset.Len() == 0 {
		return nil, fmt.Errorf("exp: replay needs a non-empty dataset")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("exp: replay needs at least one query")
	}
	if cfg.Constraint == (verify.Constraint{}) {
		cfg.Constraint = verify.Constraint{P: 0.3, Delta: 0.01}
	}
	if err := cfg.Constraint.Validate(); err != nil {
		return nil, err
	}
	sizes := cfg.BatchSizes
	if len(sizes) == 0 {
		sizes = []int{1, 8, 64, 512}
	}
	for _, b := range sizes {
		if b < 1 {
			return nil, fmt.Errorf("exp: batch size %d < 1", b)
		}
	}
	eng, err := core.NewEngine(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	opt := core.BatchOptions{
		Options: core.Options{Strategy: cfg.Strategy},
		Workers: cfg.Workers,
	}

	report := &ReplayReport{Queries: len(cfg.Queries)}

	// Baseline: sequential singles, timed per query.
	var lat stats.Sample
	var ms0, ms1 runtime.MemStats
	var sFilter, sDerive, sVerify time.Duration
	runtime.ReadMemStats(&ms0)
	singleStart := time.Now()
	baseAnswers := 0
	for _, q := range cfg.Queries {
		qStart := time.Now()
		res, err := eng.CPNN(q, cfg.Constraint, opt.Options)
		if err != nil {
			return nil, err
		}
		lat.AddDuration(time.Since(qStart))
		baseAnswers += len(res.Answers)
		f, d, v := res.Stats.PhaseDurations()
		sFilter, sDerive, sVerify = sFilter+f, sDerive+d, sVerify+v
	}
	singlesTotal := time.Since(singleStart)
	runtime.ReadMemStats(&ms1)
	singlesAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(cfg.Queries))
	report.Answers = baseAnswers

	for _, size := range sizes {
		if size == 1 {
			report.Rows = append(report.Rows, ReplayRow{
				BatchSize:      1,
				Total:          singlesTotal,
				P50:            msToDur(lat.Percentile(50)),
				P95:            msToDur(lat.Percentile(95)),
				P99:            msToDur(lat.Percentile(99)),
				Ratio:          1,
				AllocsPerQuery: singlesAllocs,
				FilterTime:     sFilter,
				DeriveTime:     sDerive,
				VerifyTime:     sVerify,
			})
			continue
		}
		var batchLat stats.Sample
		var bFilter, bDerive, bVerify time.Duration
		answers := 0
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for off := 0; off < len(cfg.Queries); off += size {
			end := off + size
			if end > len(cfg.Queries) {
				end = len(cfg.Queries)
			}
			br, err := eng.CPNNBatch(cfg.Queries[off:end], cfg.Constraint, opt)
			if err != nil {
				return nil, err
			}
			// Every query of a batch completes when the batch does.
			for range br.Results {
				batchLat.AddDuration(br.Stats.Wall)
			}
			for _, r := range br.Results {
				answers += len(r.Answers)
			}
			f, d, v := br.Stats.Aggregate.PhaseDurations()
			bFilter, bDerive, bVerify = bFilter+f, bDerive+d, bVerify+v
		}
		total := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if answers != baseAnswers {
			return nil, fmt.Errorf("exp: batch size %d returned %d answers, singles returned %d",
				size, answers, baseAnswers)
		}
		report.Rows = append(report.Rows, ReplayRow{
			BatchSize:      size,
			Total:          total,
			P50:            msToDur(batchLat.Percentile(50)),
			P95:            msToDur(batchLat.Percentile(95)),
			P99:            msToDur(batchLat.Percentile(99)),
			Ratio:          float64(singlesTotal) / float64(total),
			AllocsPerQuery: float64(ms1.Mallocs-ms0.Mallocs) / float64(len(cfg.Queries)),
			FilterTime:     bFilter,
			DeriveTime:     bDerive,
			VerifyTime:     bVerify,
		})
	}
	return report, nil
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Print renders the replay report as an aligned table.
func (r *ReplayReport) Print(w io.Writer) {
	fmt.Fprintf(w, "# Workload replay: %d queries, %d answers\n", r.Queries, r.Answers)
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s %12s %8s %24s\n",
		"batch", "total", "queries/s", "p50", "p95", "p99", "ratio", "filter/derive/verify")
	for _, row := range r.Rows {
		qps := float64(r.Queries) / row.Total.Seconds()
		phases := fmt.Sprintf("%s/%s/%s",
			row.FilterTime.Round(time.Microsecond), row.DeriveTime.Round(time.Microsecond),
			row.VerifyTime.Round(time.Microsecond))
		fmt.Fprintf(w, "%10d %12s %12.0f %12s %12s %12s %8.2f %24s\n",
			row.BatchSize, row.Total.Round(time.Microsecond), qps,
			row.P50.Round(time.Microsecond), row.P95.Round(time.Microsecond),
			row.P99.Round(time.Microsecond), row.Ratio, phases)
	}
}
