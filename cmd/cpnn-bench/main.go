// Command cpnn-bench regenerates the paper's evaluation figures (§V,
// Figures 9–14) and prints the measured series as aligned tables. It also
// replays recorded query workloads through the batch evaluation path
// (latency percentiles, batch-vs-singles ratio) and runs the
// continuous-monitoring experiment (re-evaluated-query fraction and push
// latency under localized update load — see internal/monitor).
//
// Usage:
//
//	cpnn-bench -fig 10 -queries 100
//	cpnn-bench -fig 0                          # run every figure
//	cpnn-bench -replay q.txt                   # workload replay (see cpnn-datagen -queries)
//	cpnn-bench -replay q.txt -data lb.txt -batch-sizes 1,8,64,512
//	cpnn-bench -monitor -batch-sizes 1,4,16,64 # standing-query monitoring
//	cpnn-bench -monitor -json BENCH_monitor.json
//	cpnn-bench -replica -batch-sizes 1,16,256  # WAL-shipped replication lag
//	cpnn-bench -replica -json BENCH_replica.json
//	cpnn-bench -shard -shard-counts 1,2,4,8    # scatter-gather sharding fan-out
//	cpnn-bench -shard -json BENCH_shard.json
//	cpnn-bench -capacity -capacity-sizes 10000,100000
//	                                           # paged base vs small page cache
//	cpnn-bench -capacity -assert-commit-flat -json BENCH_capacity.json
//
// -json additionally writes the replay/monitor/replica series as machine-readable
// records (name, ops/s, p50/p95/p99 latency, allocs per op) — the format of
// the repo's BENCH_*.json trajectory files.
//
// Absolute timings depend on the host; the orderings, ratios and crossovers
// are the reproduction targets (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to reproduce (9-14); 0 runs all")
		queries    = flag.Int("queries", 100, "queries averaged per data point (paper: 100)")
		seed       = flag.Int64("seed", 1, "workload seed")
		n          = flag.Int("n", 0, "dataset size override (0 = Long Beach 53,144)")
		basicSteps = flag.Int("basic-steps", 0, "Simpson steps for the Basic baseline (0 = automatic)")
		gaussBars  = flag.Int("gauss-bars", 300, "histogram bars for Gaussian pdfs (paper: 300)")
		tolerance  = flag.Float64("tolerance", 0.01, "default tolerance Delta (paper: 0.01)")

		replay     = flag.String("replay", "", "replay a query-workload file through the batch path instead of a figure")
		dataPath   = flag.String("data", "", "dataset file for -replay (default: generate the Long Beach set)")
		batchSizes = flag.String("batch-sizes", "", "comma-separated batch sizes (-replay default 1,8,64,512; -monitor default 1,4,16,64,256)")
		workers    = flag.Int("workers", 0, "batch worker pool size for -replay (0 = GOMAXPROCS)")
		p          = flag.Float64("p", 0.3, "replay threshold P")
		delta      = flag.Float64("delta", 0.01, "replay tolerance Delta")

		repl        = flag.Bool("replica", false, "run the WAL-shipped replication experiment instead of a figure")
		replObjects = flag.Int("replica-objects", 5000, "replication experiment dataset size (catch-up phase)")
		replCommits = flag.Int("replica-commits", 50, "replication experiment update commits per batch size")

		shardOn      = flag.Bool("shard", false, "run the scatter-gather sharding experiment instead of a figure")
		shardObjects = flag.Int("shard-objects", 20000, "sharding experiment dataset size")
		shardQueries = flag.Int("shard-queries", 400, "sharding experiment C-PNN queries per shard count")
		shardCounts  = flag.String("shard-counts", "", "comma-separated shard counts (default 1,2,4,8)")

		capOn      = flag.Bool("capacity", false, "run the capacity experiment (paged base + small page cache) instead of a figure")
		capSizes   = flag.String("capacity-sizes", "", "comma-separated dataset sizes (default 10000,30000,100000)")
		capCommits = flag.Int("capacity-commits", 200, "capacity experiment update commits per size")
		capBatch   = flag.Int("capacity-batch", 8, "capacity experiment updates per commit (the Δ in O(Δ))")
		capQueries = flag.Int("capacity-queries", 50, "capacity experiment C-PNN probes per size")
		capCache   = flag.Int64("capacity-cache", 256<<10, "capacity experiment page-cache budget in bytes")
		capFlat    = flag.Bool("assert-commit-flat", false, "exit non-zero if the largest size's commit p50 exceeds 4x the smallest's (regression gate)")

		mon         = flag.Bool("monitor", false, "run the continuous-monitoring experiment instead of a figure")
		monObjects  = flag.Int("monitor-objects", 10000, "monitoring experiment dataset size")
		monQueries  = flag.Int("monitor-queries", 200, "monitoring experiment standing-query count")
		monCommits  = flag.Int("monitor-commits", 100, "monitoring experiment update commits per batch size")
		monBaseline = flag.Bool("monitor-baseline", false, "disable incremental evaluation (from-scratch baseline rows)")
		noCliff     = flag.Bool("assert-no-cliff", false, "exit non-zero if batch=64 ops/s falls below batch=16 ops/s (regression gate)")

		jsonOut = flag.String("json", "", "also write machine-readable results (replay/monitor modes) to this file")
	)
	var lo obs.LogOptions
	lo.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := lo.Logger(os.Stderr, "cpnn-bench")
	if err != nil {
		fatal(err)
	}

	modes := 0
	for _, on := range []bool{*replay != "", *mon, *repl, *shardOn, *capOn} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatal(fmt.Errorf("-replay, -monitor, -replica, -shard and -capacity are mutually exclusive"))
	}
	if *replay != "" {
		logger.Info("running workload replay", "file", *replay, "batch_sizes", *batchSizes)
		if err := runReplay(*replay, *dataPath, *batchSizes, *workers, *n, *seed,
			verify.Constraint{P: *p, Delta: *delta}, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *mon {
		logger.Info("running continuous-monitoring experiment",
			"objects", *monObjects, "standing_queries", *monQueries, "commits", *monCommits)
		if err := runMonitor(*batchSizes, *monObjects, *monQueries, *monCommits, *seed,
			*monBaseline, *noCliff, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *repl {
		logger.Info("running replication experiment", "objects", *replObjects, "commits", *replCommits)
		if err := runReplica(*batchSizes, *replObjects, *replCommits, *seed, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *shardOn {
		logger.Info("running sharding experiment", "objects", *shardObjects, "queries", *shardQueries)
		if err := runShard(*shardCounts, *shardObjects, *shardQueries, *seed, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *capOn {
		logger.Info("running capacity experiment",
			"sizes", *capSizes, "cache_bytes", *capCache, "commits", *capCommits)
		if err := runCapacity(*capSizes, *capCommits, *capBatch, *capQueries, *capCache,
			*seed, *capFlat, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *noCliff {
		fatal(fmt.Errorf("-assert-no-cliff applies to -monitor mode"))
	}
	if *capFlat {
		fatal(fmt.Errorf("-assert-commit-flat applies to -capacity mode"))
	}
	if *jsonOut != "" {
		fatal(fmt.Errorf("-json applies to -replay, -monitor and -replica modes"))
	}

	cfg := exp.Config{
		Queries:    *queries,
		Seed:       *seed,
		DatasetN:   *n,
		BasicSteps: *basicSteps,
		GaussBars:  *gaussBars,
		Tolerance:  *tolerance,
	}
	if *fig == 0 {
		if err := exp.RunAll(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := exp.Registry[*fig]
	if !ok {
		fatal(fmt.Errorf("unknown figure %d (valid: 9-14)", *fig))
	}
	table, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	table.Print(os.Stdout)
}

// parseSizes parses a comma-separated batch-size list, or returns def when
// empty.
func parseSizes(csv string, def []int) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return def, nil
	}
	var sizes []int
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad batch size %q (want positive integers, comma-separated)", s)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

// runMonitor runs the continuous-monitoring experiment and prints (and
// optionally records) its table.
func runMonitor(sizesCSV string, objects, queries, commits int, seed int64, baseline, noCliff bool, jsonOut string) error {
	sizes, err := parseSizes(sizesCSV, []int{1, 4, 16, 64, 256})
	if err != nil {
		return err
	}
	report, err := exp.RunMonitor(exp.MonitorConfig{
		Objects:    objects,
		Queries:    queries,
		Commits:    commits,
		BatchSizes: sizes,
		Seed:       seed,
		Baseline:   baseline,
	})
	if err != nil {
		return err
	}
	report.Print(os.Stdout)
	if jsonOut != "" {
		if err := exp.WriteBenchJSON(jsonOut, report.Records()); err != nil {
			return err
		}
	}
	if noCliff {
		return assertNoCliff(report)
	}
	return nil
}

// runReplica runs the WAL-shipped replication experiment (catch-up
// throughput and steady-state replication lag per commit batch size) and
// prints (and optionally records) its table.
func runReplica(sizesCSV string, objects, commits int, seed int64, jsonOut string) error {
	sizes, err := parseSizes(sizesCSV, []int{1, 4, 16, 64, 256})
	if err != nil {
		return err
	}
	report, err := exp.RunReplica(exp.ReplicaConfig{
		Objects:    objects,
		Commits:    commits,
		BatchSizes: sizes,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	report.Print(os.Stdout)
	if jsonOut != "" {
		return exp.WriteBenchJSON(jsonOut, report.Records())
	}
	return nil
}

// runShard runs the scatter-gather sharding experiment (query throughput and
// gather fan-out per shard count) and prints (and optionally records) its
// table.
func runShard(countsCSV string, objects, queries int, seed int64, jsonOut string) error {
	counts, err := parseSizes(countsCSV, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	report, err := exp.RunShard(exp.ShardConfig{
		Objects:     objects,
		Queries:     queries,
		ShardCounts: counts,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	report.Print(os.Stdout)
	if jsonOut != "" {
		return exp.WriteBenchJSON(jsonOut, report.Records())
	}
	return nil
}

// runCapacity runs the capacity experiment (datasets behind a pinned-small
// page cache; commit and query latency vs dataset size) and prints (and
// optionally records) its table.
func runCapacity(sizesCSV string, commits, batch, queries int, cacheBytes, seed int64, assertFlat bool, jsonOut string) error {
	sizes, err := parseSizes(sizesCSV, []int{10000, 30000, 100000})
	if err != nil {
		return err
	}
	report, err := exp.RunCapacity(exp.CapacityConfig{
		Sizes:      sizes,
		Commits:    commits,
		BatchSize:  batch,
		Queries:    queries,
		CacheBytes: cacheBytes,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	report.Print(os.Stdout)
	if jsonOut != "" {
		if err := exp.WriteBenchJSON(jsonOut, report.Records()); err != nil {
			return err
		}
	}
	if assertFlat {
		return assertCommitFlat(report)
	}
	return nil
}

// assertCommitFlat is the bench-regression gate for O(Δ) commits: the commit
// p50 at the largest dataset size must stay within a small factor of the
// smallest size's. A linear-in-n cost anywhere on the commit path (an O(n)
// copy in view materialization, an accidental flatten, a full index rebuild)
// blows well past 4x between 10k and 100k objects; honest noise does not.
func assertCommitFlat(report *exp.CapacityReport) error {
	if len(report.Rows) < 2 {
		return fmt.Errorf("-assert-commit-flat needs at least two dataset sizes")
	}
	lo, hi := report.Rows[0], report.Rows[len(report.Rows)-1]
	const factor = 4.0
	if hi.CommitP50 > time.Duration(factor*float64(lo.CommitP50)) {
		return fmt.Errorf("commit cost scales with n: p50 %v at n=%d vs %v at n=%d (limit %gx)",
			hi.CommitP50, hi.Objects, lo.CommitP50, lo.Objects, factor)
	}
	fmt.Printf("commit flat: p50 %v at n=%d within %gx of %v at n=%d\n",
		hi.CommitP50, hi.Objects, factor, lo.CommitP50, lo.Objects)
	return nil
}

// assertNoCliff is the bench-regression gate: larger update batches touch
// more standing queries per commit but also amortize the commit overhead, so
// update throughput must not collapse between batch=16 and batch=64 — the
// cliff the incremental evaluation path exists to remove.
func assertNoCliff(report *exp.MonitorReport) error {
	var ops16, ops64 float64
	for _, row := range report.Rows {
		switch row.BatchSize {
		case 16:
			ops16 = row.OpsPerSec
		case 64:
			ops64 = row.OpsPerSec
		}
	}
	if ops16 == 0 || ops64 == 0 {
		return fmt.Errorf("-assert-no-cliff needs batch sizes 16 and 64 in the run")
	}
	if ops64 < ops16 {
		return fmt.Errorf("batch-64 cliff: %.0f ops/s at batch=64 < %.0f ops/s at batch=16", ops64, ops16)
	}
	fmt.Printf("no cliff: batch=64 %.0f ops/s >= batch=16 %.0f ops/s\n", ops64, ops16)
	return nil
}

// runReplay loads (or generates) the dataset and query workload and prints
// the amortization table.
func runReplay(queryPath, dataPath, sizesCSV string, workers, n int, seed int64, c verify.Constraint, jsonOut string) error {
	qf, err := os.Open(queryPath)
	if err != nil {
		return err
	}
	defer qf.Close()
	qs, err := uncertain.ReadQueries(qf)
	if err != nil {
		return err
	}

	var ds *uncertain.Dataset
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if ds, err = uncertain.Read(f); err != nil {
			return err
		}
		if err := ds.Validate(); err != nil {
			return err
		}
	} else {
		opt := uncertain.LongBeachOptions(seed)
		if n > 0 {
			opt.N = n
		}
		if ds, err = uncertain.GenerateUniform(opt); err != nil {
			return err
		}
	}

	sizes, err := parseSizes(sizesCSV, []int{1, 8, 64, 512})
	if err != nil {
		return err
	}

	report, err := exp.Replay(exp.ReplayConfig{
		Dataset:    ds,
		Queries:    qs,
		BatchSizes: sizes,
		Workers:    workers,
		Constraint: c,
	})
	if err != nil {
		return err
	}
	report.Print(os.Stdout)
	if jsonOut != "" {
		return exp.WriteBenchJSON(jsonOut, report.Records())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpnn-bench:", err)
	os.Exit(1)
}
