package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// ShardConfig drives the scatter-gather serving experiment: one dataset split
// into K spatial shards per shard count, then a C-PNN query workload pushed
// through the router's two-phase bound/gather pass. The headline metric is
// the gather fan-out fraction — what share of the shards each query actually
// had to read — since that is the whole point of spatial sharding: the
// filter bound turns a K-way scatter into a mostly-1-shard gather.
type ShardConfig struct {
	// Objects is the dataset size; 0 means 20000.
	Objects int
	// Queries is the workload size per shard count; 0 means 400.
	Queries int
	// ShardCounts lists the K values measured; empty means 1, 2, 4, 8.
	ShardCounts []int
	// Seed makes the dataset and workload deterministic.
	Seed int64
	// Dir is the working directory; empty means a temp dir removed
	// afterwards. Each shard count gets a fresh cluster subdir.
	Dir string
}

// ShardRow is the measured outcome of one shard count.
type ShardRow struct {
	// Shards is K, the member count of this row's cluster.
	Shards int
	// SplitTime is the wall time of partitioning + bulk-loading the cluster.
	SplitTime time.Duration
	// OpsPerSec is end-to-end query throughput through the router (bound
	// phase, gather phase, merged single-engine verification).
	OpsPerSec float64
	// P50, P95 and P99 are end-to-end query latencies.
	P50, P95, P99 time.Duration
	// MeanFanout is gather contacts per query — how many shards the average
	// query read after bound pruning.
	MeanFanout float64
	// FanoutFraction is MeanFanout / K, the pruning headline: 1.0 means the
	// bound never pruned anything, 1/K means every query read one shard.
	FanoutFraction float64
	// Retries counts gather rounds repeated because a concurrent write moved
	// the bound (zero on this read-only workload).
	Retries uint64
	// Skew is max shard population × K / total — 1.0 is a perfect split.
	Skew float64
	// Candidates is the mean merged candidate-set size per query, the
	// evidence that the merged mini-dataset stays tiny at every K.
	Candidates float64
}

// ShardReport is the outcome of the scatter-gather experiment.
type ShardReport struct {
	Objects, Queries int
	Rows             []ShardRow
}

// RunShard runs the scatter-gather serving experiment.
func RunShard(cfg ShardConfig) (*ShardReport, error) {
	if cfg.Objects == 0 {
		cfg.Objects = 20000
	}
	if cfg.Queries == 0 {
		cfg.Queries = 400
	}
	counts := cfg.ShardCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	for _, k := range counts {
		if k < 1 {
			return nil, fmt.Errorf("exp: shard count %d < 1", k)
		}
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cpnn-shard-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	opt := uncertain.LongBeachOptions(cfg.Seed)
	opt.N = cfg.Objects
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		return nil, err
	}

	report := &ShardReport{Objects: cfg.Objects, Queries: cfg.Queries}
	for _, k := range counts {
		row, err := runShardCount(dir, k, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: shards=%d: %w", k, err)
		}
		report.Rows = append(report.Rows, *row)
	}
	return report, nil
}

func runShardCount(dir string, k int, ds *uncertain.Dataset, cfg ShardConfig) (*ShardRow, error) {
	// The view hands CreateCluster the same stable IDs a single store's
	// dataset load would assign, so every shard count serves identical IDs.
	ids := make([]uint64, ds.Len())
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	view := &store.View{Dataset: ds, IDs: ids, NextID: uint64(ds.Len()) + 1}

	splitStart := time.Now()
	cluster, err := shard.CreateCluster(fmt.Sprintf("%s/k=%d", dir, k), k, view, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	rt, err := cluster.Router()
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	split := time.Since(splitStart)

	dom := ds.Domain()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
	c := verify.Constraint{P: 0.3, Delta: 0.01}

	var lat, cand stats.Sample
	start := time.Now()
	for q := 0; q < cfg.Queries; q++ {
		pt := dom.Lo + rng.Float64()*(dom.Hi-dom.Lo)
		t0 := time.Now()
		g, err := rt.Gather(context.Background(), pt, 1)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngineWithIndex(g.View.Dataset, g.View.Index)
		if err != nil {
			return nil, err
		}
		res, err := eng.CPNN(pt, c, core.Options{})
		if err != nil {
			return nil, err
		}
		lat.AddDuration(time.Since(t0))
		cand.Add(float64(res.Stats.Candidates))
	}
	total := time.Since(start)

	st := rt.Stats()
	row := &ShardRow{
		Shards:     k,
		SplitTime:  split,
		OpsPerSec:  float64(cfg.Queries) / total.Seconds(),
		P50:        msToDur(lat.Percentile(50)),
		P95:        msToDur(lat.Percentile(95)),
		P99:        msToDur(lat.Percentile(99)),
		Retries:    st.Retries,
		Candidates: cand.Mean(),
	}
	if st.Queries > 0 {
		row.MeanFanout = float64(st.GatherContacts) / float64(st.Queries)
		row.FanoutFraction = row.MeanFanout / float64(k)
	}
	if st.Objects > 0 {
		maxShard := 0
		for _, n := range st.PerShard {
			maxShard = max(maxShard, n)
		}
		row.Skew = float64(maxShard) * float64(k) / float64(st.Objects)
	}
	return row, nil
}

// Print renders the scatter-gather report as an aligned table.
func (r *ShardReport) Print(w io.Writer) {
	fmt.Fprintf(w, "# Scatter-gather serving: %d objects, %d C-PNN queries per shard count (STR-packed spatial shards)\n",
		r.Objects, r.Queries)
	fmt.Fprintf(w, "%8s %12s %12s %10s %10s %10s %10s %9s %7s %10s\n",
		"shards", "split", "ops/s", "p50", "p95", "p99", "fan-out", "fraction", "skew", "candidates")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %12s %12.0f %10s %10s %10s %10.2f %9.2f %7.2f %10.1f\n",
			row.Shards, row.SplitTime.Round(time.Millisecond), row.OpsPerSec,
			row.P50.Round(10*time.Microsecond), row.P95.Round(10*time.Microsecond),
			row.P99.Round(10*time.Microsecond),
			row.MeanFanout, row.FanoutFraction, row.Skew, row.Candidates)
	}
}

// Records converts a scatter-gather report to bench records.
func (r *ShardReport) Records() []BenchRecord {
	out := make([]BenchRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, BenchRecord{
			Name:      fmt.Sprintf("shard/k=%d", row.Shards),
			OpsPerSec: row.OpsPerSec,
			P50Ms:     ms(row.P50),
			P95Ms:     ms(row.P95),
			P99Ms:     ms(row.P99),
			Extra: Extra{
				"mean_fanout":     row.MeanFanout,
				"fanout_fraction": row.FanoutFraction,
				"split_ms":        ms(row.SplitTime),
				"retries":         float64(row.Retries),
				"skew":            row.Skew,
				"candidates":      row.Candidates,
			},
		})
	}
	return out
}
