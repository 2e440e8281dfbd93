package server

import (
	"fmt"
	"io"

	"repro/internal/replica"
)

// Replica-mode reporting: the /healthz "replication" object and the
// replication metric families. The read gate and the write redirect that
// make a server a replica are localBackend's admit and admitWrite.

// replicationHealth is the /healthz "replication" object on a replica.
func replicationHealth(f *replica.Follower) map[string]any {
	st := f.Stats()
	rep := map[string]any{
		"source":              f.Source(),
		"connected":           st.Connected,
		"caught_up":           st.CaughtUp,
		"applied_seq":         st.AppliedSeq,
		"applied_version":     st.AppliedVersion,
		"primary_seq":         st.PrimarySeq,
		"primary_version":     st.PrimaryVersion,
		"lag_versions":        st.Lag.Versions,
		"lag_seconds":         st.Lag.Seconds,
		"lag_bytes":           st.Lag.Bytes,
		"reconnects":          st.Reconnects,
		"snapshot_bootstraps": st.SnapshotBootstraps,
	}
	if h := f.PrimaryHTTP(); h != "" {
		rep["primary_http"] = h
	}
	if e := f.LastError(); e != "" {
		rep["last_error"] = e
	}
	return rep
}

// writeFollowerMetrics renders a replica's cpnn_server_replica_* families.
func writeFollowerMetrics(w io.Writer, fs replica.FollowerStats) {
	const p = "cpnn_server_"
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "# TYPE %sreplica_connected gauge\n", p)
	fmt.Fprintf(w, "# HELP %sreplica_connected 1 while a replication stream to the primary is live.\n", p)
	fmt.Fprintf(w, "%sreplica_connected %d\n", p, b2i(fs.Connected))
	fmt.Fprintf(w, "# TYPE %sreplica_caught_up gauge\n", p)
	fmt.Fprintf(w, "# HELP %sreplica_caught_up 1 once the first full catch-up happened (read serving gates on it).\n", p)
	fmt.Fprintf(w, "%sreplica_caught_up %d\n", p, b2i(fs.CaughtUp))
	fmt.Fprintf(w, "# TYPE %sreplica_lag_versions gauge\n", p)
	fmt.Fprintf(w, "%sreplica_lag_versions %d\n", p, fs.Lag.Versions)
	fmt.Fprintf(w, "# TYPE %sreplica_lag_seconds gauge\n", p)
	fmt.Fprintf(w, "# HELP %sreplica_lag_seconds How long the replica has continuously been behind the last-heard primary position.\n", p)
	fmt.Fprintf(w, "%sreplica_lag_seconds %g\n", p, fs.Lag.Seconds)
	fmt.Fprintf(w, "# TYPE %sreplica_lag_bytes gauge\n", p)
	fmt.Fprintf(w, "%sreplica_lag_bytes %d\n", p, fs.Lag.Bytes)
	fmt.Fprintf(w, "# TYPE %sreplica_records_applied_total counter\n", p)
	fmt.Fprintf(w, "%sreplica_records_applied_total %d\n", p, fs.RecordsApplied)
	fmt.Fprintf(w, "# TYPE %sreplica_bytes_applied_total counter\n", p)
	fmt.Fprintf(w, "%sreplica_bytes_applied_total %d\n", p, fs.BytesApplied)
	fmt.Fprintf(w, "# TYPE %sreplica_reconnects_total counter\n", p)
	fmt.Fprintf(w, "%sreplica_reconnects_total %d\n", p, fs.Reconnects)
	fmt.Fprintf(w, "# TYPE %sreplica_snapshot_bootstraps_total counter\n", p)
	fmt.Fprintf(w, "%sreplica_snapshot_bootstraps_total %d\n", p, fs.SnapshotBootstraps)
}

// writeReplicationMetrics renders a primary's cpnn_server_replication_*
// families.
func writeReplicationMetrics(w io.Writer, rs replica.ServerStats) {
	const p = "cpnn_server_"
	fmt.Fprintf(w, "# TYPE %sreplication_followers gauge\n", p)
	fmt.Fprintf(w, "# HELP %sreplication_followers Currently connected replication followers.\n", p)
	fmt.Fprintf(w, "%sreplication_followers %d\n", p, rs.Followers)
	fmt.Fprintf(w, "# TYPE %sreplication_records_shipped_total counter\n", p)
	fmt.Fprintf(w, "%sreplication_records_shipped_total %d\n", p, rs.RecordsShipped)
	fmt.Fprintf(w, "# TYPE %sreplication_bytes_shipped_total counter\n", p)
	fmt.Fprintf(w, "%sreplication_bytes_shipped_total %d\n", p, rs.BytesShipped)
	fmt.Fprintf(w, "# TYPE %sreplication_snapshots_sent_total counter\n", p)
	fmt.Fprintf(w, "%sreplication_snapshots_sent_total %d\n", p, rs.SnapshotsSent)
	fmt.Fprintf(w, "# TYPE %sreplication_heartbeats_total counter\n", p)
	fmt.Fprintf(w, "%sreplication_heartbeats_total %d\n", p, rs.Heartbeats)
	fmt.Fprintf(w, "# TYPE %sreplication_resyncs_total counter\n", p)
	fmt.Fprintf(w, "# HELP %sreplication_resyncs_total Followers transparently re-synced from the on-disk log after their live tail overflowed.\n", p)
	fmt.Fprintf(w, "%sreplication_resyncs_total %d\n", p, rs.Resyncs)
}
