package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/store"
)

// endpoint indexes the per-endpoint request counters.
type endpoint int

const (
	epCPNN endpoint = iota
	epBatch
	epPNN
	epKNN
	epDataset
	epObjects
	epMonitors
	epSubscribe
	epHealthz
	epMetrics
	epShard // member wire protocol (/internal/shard/*)
	numEndpoints
)

func (e endpoint) String() string {
	switch e {
	case epCPNN:
		return "cpnn"
	case epBatch:
		return "batch"
	case epPNN:
		return "pnn"
	case epKNN:
		return "knn"
	case epDataset:
		return "dataset"
	case epObjects:
		return "objects"
	case epMonitors:
		return "monitors"
	case epSubscribe:
		return "subscribe"
	case epHealthz:
		return "healthz"
	case epMetrics:
		return "metrics"
	case epShard:
		return "shard"
	default:
		return fmt.Sprintf("endpoint(%d)", int(e))
	}
}

// sseReason classifies why an SSE subscription stream ended, for the
// cpnn_server_sse_closed_total{reason=...} counter and the close log line.
type sseReason int

const (
	sseDrain      sseReason = iota // server shutdown drained the stream
	sseClientGone                  // client disconnected (request context done)
	sseLagged                      // subscriber fell behind and was cut
	sseClosed                      // subscription closed (monitor unregistered)
	numSSEReasons
)

func (r sseReason) String() string {
	switch r {
	case sseDrain:
		return "drain"
	case sseClientGone:
		return "client_gone"
	case sseLagged:
		return "lagged"
	case sseClosed:
		return "closed"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// metrics holds the server's operational counters. All fields are atomics so
// the serving path never takes a lock to account for itself; /metrics renders
// them in the Prometheus text exposition format without external
// dependencies.
type metrics struct {
	requests     [numEndpoints]atomic.Int64
	clientErrors atomic.Int64 // 4xx responses
	serverErrors atomic.Int64 // 5xx responses

	inflight  atomic.Int64 // evaluations currently holding a worker slot
	evals     atomic.Int64 // completed engine evaluations
	evalNanos atomic.Int64 // total wall time inside engine evaluations

	reloads atomic.Int64 // successful dataset snapshot swaps

	// followerErrors counts snapshot installs the store-feed follower could
	// not complete — a non-zero value means the served snapshot may lag the
	// durable store (store mode only).
	followerErrors atomic.Int64

	// sseClosed counts ended SSE subscription streams by close reason.
	sseClosed [numSSEReasons]atomic.Int64
}

// write renders the counters every backend shares plus the cache and
// served-data gauges.
func (m *metrics) write(w io.Writer, c *cache, info datasetResponse) {
	const p = "cpnn_server_"
	fmt.Fprintf(w, "# HELP %srequests_total Requests served, by endpoint.\n", p)
	fmt.Fprintf(w, "# TYPE %srequests_total counter\n", p)
	for e := endpoint(0); e < numEndpoints; e++ {
		fmt.Fprintf(w, "%srequests_total{endpoint=%q} %d\n", p, e.String(), m.requests[e].Load())
	}
	fmt.Fprintf(w, "# TYPE %sclient_errors_total counter\n", p)
	fmt.Fprintf(w, "%sclient_errors_total %d\n", p, m.clientErrors.Load())
	fmt.Fprintf(w, "# TYPE %sserver_errors_total counter\n", p)
	fmt.Fprintf(w, "%sserver_errors_total %d\n", p, m.serverErrors.Load())

	fmt.Fprintf(w, "# TYPE %scache_hits_total counter\n", p)
	fmt.Fprintf(w, "%scache_hits_total %d\n", p, c.hits.Load())
	fmt.Fprintf(w, "# TYPE %scache_misses_total counter\n", p)
	fmt.Fprintf(w, "%scache_misses_total %d\n", p, c.misses.Load())
	fmt.Fprintf(w, "# TYPE %scache_shared_total counter\n", p)
	fmt.Fprintf(w, "# HELP %scache_shared_total Requests collapsed onto an identical in-flight evaluation.\n", p)
	fmt.Fprintf(w, "%scache_shared_total %d\n", p, c.shared.Load())
	fmt.Fprintf(w, "# TYPE %scache_evictions_total counter\n", p)
	fmt.Fprintf(w, "%scache_evictions_total %d\n", p, c.evictions.Load())
	fmt.Fprintf(w, "# TYPE %scache_entries gauge\n", p)
	fmt.Fprintf(w, "%scache_entries %d\n", p, c.Len())

	fmt.Fprintf(w, "# TYPE %sinflight_evaluations gauge\n", p)
	fmt.Fprintf(w, "%sinflight_evaluations %d\n", p, m.inflight.Load())
	fmt.Fprintf(w, "# TYPE %sevaluations_total counter\n", p)
	fmt.Fprintf(w, "%sevaluations_total %d\n", p, m.evals.Load())
	fmt.Fprintf(w, "# TYPE %sevaluation_seconds_total counter\n", p)
	fmt.Fprintf(w, "%sevaluation_seconds_total %g\n", p, float64(m.evalNanos.Load())/1e9)

	fmt.Fprintf(w, "# TYPE %ssnapshot_version gauge\n", p)
	fmt.Fprintf(w, "%ssnapshot_version %d\n", p, info.Version)
	fmt.Fprintf(w, "# TYPE %ssnapshot_objects gauge\n", p)
	fmt.Fprintf(w, "%ssnapshot_objects %d\n", p, info.Objects)
	fmt.Fprintf(w, "# TYPE %ssnapshot_reloads_total counter\n", p)
	fmt.Fprintf(w, "%ssnapshot_reloads_total %d\n", p, m.reloads.Load())

	fmt.Fprintf(w, "# HELP %ssse_closed_total SSE subscription streams ended, by close reason.\n", p)
	fmt.Fprintf(w, "# TYPE %ssse_closed_total counter\n", p)
	for r := sseReason(0); r < numSSEReasons; r++ {
		fmt.Fprintf(w, "%ssse_closed_total{reason=%q} %d\n", p, r.String(), m.sseClosed[r].Load())
	}
}

// writeStore renders the durable-store and page-cache families (present only
// with -data-dir / Config.Store).
func (m *metrics) writeStore(w io.Writer, st store.Stats) {
	const p = "cpnn_server_"
	fmt.Fprintf(w, "# TYPE %sstore_ops_applied_total counter\n", p)
	fmt.Fprintf(w, "%sstore_ops_applied_total %d\n", p, st.OpsApplied)
	fmt.Fprintf(w, "# TYPE %sstore_commits_total counter\n", p)
	fmt.Fprintf(w, "%sstore_commits_total %d\n", p, st.Commits)
	fmt.Fprintf(w, "# TYPE %sstore_wal_bytes gauge\n", p)
	fmt.Fprintf(w, "%sstore_wal_bytes %d\n", p, st.WALBytes)
	fmt.Fprintf(w, "# TYPE %sstore_wal_appended_bytes_total counter\n", p)
	fmt.Fprintf(w, "%sstore_wal_appended_bytes_total %d\n", p, st.WALAppendedBytes)
	fmt.Fprintf(w, "# TYPE %sstore_wal_records gauge\n", p)
	fmt.Fprintf(w, "# HELP %sstore_wal_records WAL records written since the last checkpoint.\n", p)
	fmt.Fprintf(w, "%sstore_wal_records %d\n", p, st.WALRecords)
	fmt.Fprintf(w, "# TYPE %sstore_checkpoints_total counter\n", p)
	fmt.Fprintf(w, "%sstore_checkpoints_total %d\n", p, st.Checkpoints)
	fmt.Fprintf(w, "# TYPE %sstore_checkpoint_seconds_total counter\n", p)
	fmt.Fprintf(w, "%sstore_checkpoint_seconds_total %g\n", p, float64(st.CheckpointNanos)/1e9)
	if st.LastCheckpointUnixNano > 0 {
		age := time.Since(time.Unix(0, st.LastCheckpointUnixNano)).Seconds()
		if age < 0 {
			age = 0
		}
		fmt.Fprintf(w, "# HELP %sstore_checkpoint_age_seconds Seconds since the last completed checkpoint.\n", p)
		fmt.Fprintf(w, "# TYPE %sstore_checkpoint_age_seconds gauge\n", p)
		fmt.Fprintf(w, "%sstore_checkpoint_age_seconds %g\n", p, age)
	}
	fmt.Fprintf(w, "# HELP %sstore_wal_tail_bytes WAL bytes a reopen would replay (compaction debt since the last checkpoint).\n", p)
	fmt.Fprintf(w, "# TYPE %sstore_wal_tail_bytes gauge\n", p)
	fmt.Fprintf(w, "%sstore_wal_tail_bytes %d\n", p, st.WALBytes)
	fmt.Fprintf(w, "# TYPE %sstore_objects_2d gauge\n", p)
	fmt.Fprintf(w, "%sstore_objects_2d %d\n", p, st.Objects2D)
	fmt.Fprintf(w, "# TYPE %sstore_feed_subscribers gauge\n", p)
	fmt.Fprintf(w, "%sstore_feed_subscribers %d\n", p, st.FeedSubscribers)
	fmt.Fprintf(w, "# TYPE %sstore_feed_dropped_total counter\n", p)
	fmt.Fprintf(w, "%sstore_feed_dropped_total %d\n", p, st.FeedDropped)
	fmt.Fprintf(w, "# TYPE %ssnapshot_follower_errors_total counter\n", p)
	fmt.Fprintf(w, "%ssnapshot_follower_errors_total %d\n", p, m.followerErrors.Load())

	// Page-cache counters: how the disk-backed dataset is being served.
	const pc = "cpnn_pagecache_"
	fmt.Fprintf(w, "# HELP %shits_total Page reads served from the buffer pool.\n", pc)
	fmt.Fprintf(w, "# TYPE %shits_total counter\n", pc)
	fmt.Fprintf(w, "%shits_total %d\n", pc, st.PageCache.Hits)
	fmt.Fprintf(w, "# TYPE %smisses_total counter\n", pc)
	fmt.Fprintf(w, "%smisses_total %d\n", pc, st.PageCache.Misses)
	fmt.Fprintf(w, "# TYPE %sevictions_total counter\n", pc)
	fmt.Fprintf(w, "%sevictions_total %d\n", pc, st.PageCache.Evictions)
	fmt.Fprintf(w, "# TYPE %swritebacks_total counter\n", pc)
	fmt.Fprintf(w, "%swritebacks_total %d\n", pc, st.PageCache.Writebacks)
	fmt.Fprintf(w, "# TYPE %sresident_pages gauge\n", pc)
	fmt.Fprintf(w, "%sresident_pages %d\n", pc, st.PageCache.ResidentPages)
	fmt.Fprintf(w, "# TYPE %sbudget_bytes gauge\n", pc)
	fmt.Fprintf(w, "%sbudget_bytes %d\n", pc, st.CacheBytes)
	fmt.Fprintf(w, "# HELP %sbase_pages Pages in the base checkpoint file (on-disk footprint).\n", pc)
	fmt.Fprintf(w, "# TYPE %sbase_pages gauge\n", pc)
	fmt.Fprintf(w, "%sbase_pages %d\n", pc, st.BasePages)
	fmt.Fprintf(w, "# HELP %soverlay_slots Objects whose payloads are resident in the MVCC overlay (written since the last checkpoint).\n", pc)
	fmt.Fprintf(w, "# TYPE %soverlay_slots gauge\n", pc)
	fmt.Fprintf(w, "%soverlay_slots %d\n", pc, st.OverlaySlots)
	fmt.Fprintf(w, "# TYPE %sbase_slots gauge\n", pc)
	fmt.Fprintf(w, "%sbase_slots %d\n", pc, st.BaseSlots)
}

// writeMonitorMetrics renders the continuous-query families under prefix p:
// cpnn_server_monitor_* for a monitor over the server's store,
// cpnn_server_shard_monitor_* for one over an in-process shard cluster (whose
// stateless source leaves the early-exit, fold and state families at zero).
func writeMonitorMetrics(w io.Writer, p string, ms monitor.Stats) {
	fmt.Fprintf(w, "# TYPE %smonitor_active gauge\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_active Registered standing queries.\n", p)
	fmt.Fprintf(w, "%smonitor_active %d\n", p, ms.Active)
	fmt.Fprintf(w, "# TYPE %smonitor_subscribers gauge\n", p)
	fmt.Fprintf(w, "%smonitor_subscribers %d\n", p, ms.Subscribers)
	fmt.Fprintf(w, "# TYPE %smonitor_deltas_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_deltas_total %d\n", p, ms.Deltas)
	fmt.Fprintf(w, "# TYPE %smonitor_gaps_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_gaps_total %d\n", p, ms.Gaps)
	fmt.Fprintf(w, "# TYPE %smonitor_reevals_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_reevals_total %d\n", p, ms.ReEvals)
	fmt.Fprintf(w, "# TYPE %smonitor_affected_total counter\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_affected_total (query, commit) pairs the spatial join re-evaluated.\n", p)
	fmt.Fprintf(w, "%smonitor_affected_total %d\n", p, ms.Affected)
	fmt.Fprintf(w, "# TYPE %smonitor_pruned_total counter\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_pruned_total (query, commit) pairs influence pruning skipped.\n", p)
	fmt.Fprintf(w, "%smonitor_pruned_total %d\n", p, ms.Pruned)
	if total := ms.Affected + ms.Pruned; total > 0 {
		fmt.Fprintf(w, "# TYPE %smonitor_pruned_fraction gauge\n", p)
		fmt.Fprintf(w, "%smonitor_pruned_fraction %g\n", p, float64(ms.Pruned)/float64(total))
	}
	fmt.Fprintf(w, "# TYPE %smonitor_pushes_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_pushes_total %d\n", p, ms.Pushes)
	fmt.Fprintf(w, "# TYPE %smonitor_dropped_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_dropped_total %d\n", p, ms.Dropped)
	fmt.Fprintf(w, "# TYPE %smonitor_errors_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_errors_total %d\n", p, ms.Errors)
	fmt.Fprintf(w, "# TYPE %smonitor_early_exit_total counter\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_early_exit_total Re-evaluations resolved without running the verifier (changes provably could not alter the answer).\n", p)
	fmt.Fprintf(w, "%smonitor_early_exit_total %d\n", p, ms.EarlyExits)
	fmt.Fprintf(w, "# TYPE %smonitor_2d_fallback_total counter\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_2d_fallback_total 2-D object changes skipped by the spatial join (standing queries are 1-D).\n", p)
	fmt.Fprintf(w, "%smonitor_2d_fallback_total %d\n", p, ms.TwoDFallbacks)
	fmt.Fprintf(w, "# TYPE %smonitor_folds_reused_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_folds_reused_total %d\n", p, ms.IncrementalReused)
	fmt.Fprintf(w, "# TYPE %smonitor_folds_derived_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_folds_derived_total %d\n", p, ms.IncrementalDerived)
	fmt.Fprintf(w, "# TYPE %smonitor_state_bytes gauge\n", p)
	fmt.Fprintf(w, "# HELP %smonitor_state_bytes Memory retained by per-query incremental evaluation states.\n", p)
	fmt.Fprintf(w, "%smonitor_state_bytes %d\n", p, ms.StateBytes)
	fmt.Fprintf(w, "# TYPE %smonitor_state_queries gauge\n", p)
	fmt.Fprintf(w, "%smonitor_state_queries %d\n", p, ms.StateQueries)
	fmt.Fprintf(w, "# TYPE %smonitor_state_evictions_total counter\n", p)
	fmt.Fprintf(w, "%smonitor_state_evictions_total %d\n", p, ms.StateEvictions)
}

// writeObsMetrics renders the build-info gauge, process uptime, the
// per-phase latency histograms, and every collector the binary registered
// (router member/fan-out, replica apply-lag, monitor push-latency).
func (s *Server) writeObsMetrics(w io.Writer) {
	obs.WriteBuildInfo(w)
	fmt.Fprintf(w, "# HELP cpnn_server_uptime_seconds Seconds since the server was constructed.\n")
	fmt.Fprintf(w, "# TYPE cpnn_server_uptime_seconds gauge\n")
	fmt.Fprintf(w, "cpnn_server_uptime_seconds %g\n", time.Since(s.started).Seconds())
	s.phase.WritePrometheus(w)
	s.extra.WritePrometheus(w)
}
