package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list. The
// tables below are the single source of the names the program prints; a test
// holds them equal to BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// refNominalMs is the reference kernel's nominal iteration time: every timing
// of a round is scaled by refNominalMs/ref_r, so a value reads as "on a
// machine where the kernel takes 4 ms" (what it takes on the 2-core box the
// benchmark was sized on).
const refNominalMs = 4.0

// endToEnd lists the gated metrics; every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"heap_live_mb", "MB", "lower", 0.15},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer lists the ungated single-layer metrics of the traced run. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"server.handler_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.resp_bytes", "B", "lower", 0},
	{"server.hit_us", "us", "lower", 0},
	{"server.hit_ratio", "ratio", "higher", 0},
	{"server.commit_us", "us", "lower", 0},
	{"core.cpnn_us", "us", "lower", 0},
	{"core.filter_us", "us", "lower", 0},
	{"core.derive_us", "us", "lower", 0},
	{"core.verify_us", "us", "lower", 0},
	{"core.refine_us", "us", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.subregions", "count", "lower", 0},
	{"core.refined_frac", "ratio", "lower", 0},
	{"core.incremental_us", "us", "lower", 0},
	{"filter.candidates_us", "us", "lower", 0},
	{"dist.fold_us", "us", "lower", 0},
	{"subregion.build_us", "us", "lower", 0},
	{"verify.run_us", "us", "lower", 0},
	{"verify.unknown_frac_rs", "ratio", "lower", 0},
	{"verify.unknown_frac_lsr", "ratio", "lower", 0},
	{"verify.unknown_frac_usr", "ratio", "lower", 0},
	{"refine.integrations", "count", "lower", 0},
	{"shard.gather_us", "us", "lower", 0},
	{"shard.bound_us", "us", "lower", 0},
	{"shard.bound_sum_us", "us", "lower", 0},
	{"shard.bound_frac", "ratio", "lower", 0},
	{"shard.member_gather_us", "us", "lower", 0},
	{"shard.merge_us", "us", "lower", 0},
	{"shard.fanout", "count", "lower", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.miniview_objects", "count", "lower", 0},
	{"pagecache.misses_per_read", "count", "lower", 0},
	{"pagecache.hit_ratio", "ratio", "higher", 0},
	{"pagecache.evictions", "count", "lower", 0},
	{"pagecache.resident_kb", "KB", "lower", 0},
	{"store.apply_us", "us", "lower", 0},
	{"store.wal_bytes_per_commit", "B", "lower", 0},
	{"store.overlay_slots", "count", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"store.checkpoint_ms", "ms", "lower", 0},
	{"store.write_amp", "ratio", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"monitor.sync_us", "us", "lower", 0},
	{"monitor.reeval_frac", "ratio", "lower", 0},
	{"monitor.fold_reuse_frac", "ratio", "higher", 0},
	{"monitor.early_exits", "count", "higher", 0},
	{"monitor.pushes_per_commit", "count", "lower", 0},
	{"monitor.state_kb", "KB", "lower", 0},
	{"commit_p50_ms", "ms", "lower", 0},
	{"commit_p95_ms", "ms", "lower", 0},
	{"commit_stall_ms", "ms", "lower", 0},
	{"raw.ops_per_s", "1/s", "higher", 0},
	{"raw.p50_ms", "ms", "lower", 0},
	{"raw.p95_ms", "ms", "lower", 0},
	{"raw.p99_ms", "ms", "lower", 0},
	{"ref_ms", "ms", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// minBeyond is the number of samples a reported percentile must leave beyond
// it; a percentile with fewer is a report of single outliers, not of a tail.
const minBeyond = 10

// percentileSupported reports whether n samples leave at least minBeyond
// beyond the p-th percentile (p in (0,100)).
func percentileSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// percentile returns the p-th percentile of sorted by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the median of vs (mean of the middle two for an even count)
// without reordering the caller's slice; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs; 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// normTime scales a duration measured while the reference kernel took refMs to
// the nominal machine.
func normTime(v, refMs float64) float64 { return v * refNominalMs / refMs }
