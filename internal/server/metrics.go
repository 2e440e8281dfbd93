package server

import (
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
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

// endpointNames are the requests_total{endpoint=...} label values.
var endpointNames = [numEndpoints]string{
	epCPNN: "cpnn", epBatch: "batch", epPNN: "pnn", epKNN: "knn",
	epDataset: "dataset", epObjects: "objects", epMonitors: "monitors",
	epSubscribe: "subscribe", epHealthz: "healthz", epMetrics: "metrics",
	epShard: "shard",
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

// sseReasonNames are the sse_closed_total{reason=...} label values and the
// close log line's reason attr.
var sseReasonNames = [numSSEReasons]string{
	sseDrain: "drain", sseClientGone: "client_gone", sseLagged: "lagged", sseClosed: "closed",
}

// metrics holds the server's operational counters. All fields are atomics so
// the serving path never takes a lock to account for itself; the collectors
// below read them at scrape time.
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

// collect emits the families every serving shape exports: request, error,
// cache and evaluation counters, the served-data gauges, SSE close reasons,
// build info and uptime.
func (s *Server) collect(e *obs.Emitter) {
	const p = "cpnn_server_"
	m, c, info := &s.m, s.cc, s.be.info()
	for ep, name := range endpointNames {
		obs.Counter(e, p+"requests_total", "Requests served, by endpoint.", m.requests[ep].Load(), "endpoint", name)
	}
	obs.Counter(e, p+"client_errors_total", "Responses with a 4xx status.", m.clientErrors.Load())
	obs.Counter(e, p+"server_errors_total", "Responses with a 5xx status.", m.serverErrors.Load())

	obs.Counter(e, p+"cache_hits_total", "Result-cache lookups answered from a stored entry.", c.hits.Load())
	obs.Counter(e, p+"cache_misses_total", "Result-cache lookups that missed and ran the evaluation.", c.misses.Load())
	obs.Counter(e, p+"cache_shared_total", "Requests collapsed onto an identical in-flight evaluation.", c.shared.Load())
	obs.Counter(e, p+"cache_evictions_total", "Result-cache entries evicted to stay within capacity.", c.evictions.Load())
	obs.Gauge(e, p+"cache_entries", "Entries currently held by the result cache.", c.Len())

	obs.Gauge(e, p+"inflight_evaluations", "Evaluations currently holding a worker slot.", m.inflight.Load())
	obs.Counter(e, p+"evaluations_total", "Completed engine evaluations.", m.evals.Load())
	obs.Counter(e, p+"evaluation_seconds_total", "Wall time spent inside engine evaluations.", float64(m.evalNanos.Load())/1e9)

	obs.Gauge(e, p+"snapshot_version", "Version of the data currently served (a router reports the sum over its members).", info.Version)
	obs.Gauge(e, p+"snapshot_objects", "Live 1-D objects in the data currently served.", info.Objects)
	obs.Counter(e, p+"snapshot_reloads_total", "Whole-dataset replacements since boot.", m.reloads.Load())

	for r, name := range sseReasonNames {
		obs.Counter(e, p+"sse_closed_total", "SSE subscription streams ended, by close reason.", m.sseClosed[r].Load(), "reason", name)
	}

	obs.BuildInfo(e)
	obs.Gauge(e, p+"uptime_seconds", "Seconds since the server was constructed.", time.Since(s.started).Seconds())
}

// collectStore emits the durable-store and page-cache families (present only
// with -data-dir / Config.Store).
func (s *Server) collectStore(e *obs.Emitter) {
	st := s.cfg.Store.Stats()
	const p = "cpnn_server_store_"
	obs.Counter(e, p+"ops_applied_total", "Ops committed to the store.", st.OpsApplied)
	obs.Counter(e, p+"commits_total", "Batches committed to the store.", st.Commits)
	obs.Gauge(e, p+"wal_bytes", "WAL bytes a reopen would replay (compaction debt since the last checkpoint).", st.WALBytes)
	obs.Counter(e, p+"wal_appended_bytes_total", "WAL bytes ever appended (survives WAL resets).", st.WALAppendedBytes)
	obs.Gauge(e, p+"wal_records", "WAL records written since the last checkpoint.", st.WALRecords)
	obs.Counter(e, p+"checkpoints_total", "Completed checkpoints.", st.Checkpoints)
	obs.Counter(e, p+"checkpoint_seconds_total", "Wall time spent writing checkpoints.", float64(st.CheckpointNanos)/1e9)
	if st.LastCheckpointUnixNano > 0 {
		age := max(0, time.Since(time.Unix(0, st.LastCheckpointUnixNano)).Seconds())
		obs.Gauge(e, p+"checkpoint_age_seconds", "Seconds since the last completed checkpoint.", age)
	}
	obs.Gauge(e, p+"objects_2d", "Live 2-D objects in the store.", st.Objects2D)
	obs.Gauge(e, p+"feed_subscribers", "Live change-feed subscriptions.", st.FeedSubscribers)
	obs.Counter(e, p+"feed_dropped_total", "Deltas dropped on lagging change-feed subscribers.", st.FeedDropped)
	obs.Counter(e, "cpnn_server_snapshot_follower_errors_total",
		"Snapshot installs the store-feed follower could not complete (the served snapshot may lag the store).",
		s.m.followerErrors.Load())

	// Page-cache counters: how the disk-backed dataset is being served.
	const pc = "cpnn_pagecache_"
	obs.Counter(e, pc+"hits_total", "Page reads served from the buffer pool.", st.PageCache.Hits)
	obs.Counter(e, pc+"misses_total", "Page reads that faulted a page in from disk.", st.PageCache.Misses)
	obs.Counter(e, pc+"evictions_total", "Pages evicted by read faults to stay within the budget.", st.PageCache.Evictions)
	obs.Counter(e, pc+"writebacks_total", "Pages the last checkpoint writer wrote to the base file.", st.PageCache.Writebacks)
	obs.Gauge(e, pc+"resident_pages", "Pages currently resident in the buffer pool.", st.PageCache.ResidentPages)
	obs.Gauge(e, pc+"budget_bytes", "Configured page-cache budget.", st.CacheBytes)
	obs.Gauge(e, pc+"base_pages", "Pages in the base checkpoint file (on-disk footprint).", st.BasePages)
	obs.Gauge(e, pc+"overlay_slots", "Objects whose payloads are resident in the MVCC overlay (written since the last checkpoint).", st.OverlaySlots)
	obs.Gauge(e, pc+"base_slots", "Objects whose payloads are read from the paged base checkpoint.", st.BaseSlots)
}

// collectMonitor emits the continuous-query families under prefix:
// cpnn_server_monitor_* for a monitor over the server's store,
// cpnn_server_shard_monitor_* for one over an in-process shard cluster (whose
// stateless source leaves the early-exit, fold and state families at zero).
func collectMonitor(e *obs.Emitter, prefix string, ms monitor.Stats) {
	p := prefix + "monitor_"
	obs.Gauge(e, p+"active", "Registered standing queries.", ms.Active)
	obs.Gauge(e, p+"subscribers", "Live update subscriptions.", ms.Subscribers)
	obs.Counter(e, p+"deltas_total", "Change-feed deltas processed.", ms.Deltas)
	obs.Counter(e, p+"gaps_total", "Deltas that arrived as lag gaps, forcing full re-evaluation.", ms.Gaps)
	obs.Counter(e, p+"reevals_total", "Completed standing-query re-evaluations.", ms.ReEvals)
	obs.Counter(e, p+"affected_total", "(query, commit) pairs the spatial join re-evaluated.", ms.Affected)
	obs.Counter(e, p+"pruned_total", "(query, commit) pairs influence pruning skipped.", ms.Pruned)
	if total := ms.Affected + ms.Pruned; total > 0 {
		obs.Gauge(e, p+"pruned_fraction", "Pruned pairs over all (query, commit) pairs: the re-evaluation work saved.", float64(ms.Pruned)/float64(total))
	}
	obs.Counter(e, p+"pushes_total", "Re-evaluations that changed the answer and were pushed to subscribers.", ms.Pushes)
	obs.Counter(e, p+"dropped_total", "Updates dropped on slow subscribers.", ms.Dropped)
	obs.Counter(e, p+"errors_total", "Failed evaluations (some standing answers may be stale until their next triggering commit).", ms.Errors)
	obs.Counter(e, p+"early_exit_total", "Re-evaluations resolved without running the verifier (changes provably could not alter the answer).", ms.EarlyExits)
	obs.Counter(e, p+"2d_fallback_total", "2-D object changes skipped by the spatial join (standing queries are 1-D).", ms.TwoDFallbacks)
	obs.Counter(e, p+"folds_reused_total", "Candidate folds served from per-query incremental states.", ms.IncrementalReused)
	obs.Counter(e, p+"folds_derived_total", "Candidate folds recomputed.", ms.IncrementalDerived)
	obs.Gauge(e, p+"state_bytes", "Memory retained by per-query incremental evaluation states.", ms.StateBytes)
	obs.Gauge(e, p+"state_queries", "Standing queries holding an incremental evaluation state.", ms.StateQueries)
	obs.Counter(e, p+"state_evictions_total", "Incremental states dropped to respect the state-memory cap.", ms.StateEvictions)
}
