package server

import (
	"repro/internal/obs"
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

// collectFollower emits a replica's cpnn_server_replica_* families.
func (s *Server) collectFollower(e *obs.Emitter) {
	fs := s.cfg.Replica.Stats()
	const p = "cpnn_server_replica_"
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	obs.Gauge(e, p+"connected", "1 while a replication stream to the primary is live.", b2i(fs.Connected))
	obs.Gauge(e, p+"caught_up", "1 once the first full catch-up happened (read serving gates on it).", b2i(fs.CaughtUp))
	obs.Gauge(e, p+"lag_versions", "Versions the replica is behind the last-heard primary position.", fs.Lag.Versions)
	obs.Gauge(e, p+"lag_seconds", "How long the replica has continuously been behind the last-heard primary position.", fs.Lag.Seconds)
	obs.Gauge(e, p+"lag_bytes", "WAL bytes the replica is behind the last-heard primary position.", fs.Lag.Bytes)
	obs.Counter(e, p+"records_applied_total", "Replicated WAL records replayed into the local store.", fs.RecordsApplied)
	obs.Counter(e, p+"bytes_applied_total", "Op payload bytes replayed (matches WAL byte accounting).", fs.BytesApplied)
	obs.Counter(e, p+"reconnects_total", "Replication streams re-established after a working one died.", fs.Reconnects)
	obs.Counter(e, p+"snapshot_bootstraps_total", "Full-state snapshot installs (fresh or outrun follower).", fs.SnapshotBootstraps)
}

// collectReplication emits a primary's cpnn_server_replication_* families.
func (s *Server) collectReplication(e *obs.Emitter) {
	rs := s.cfg.Replication.Stats()
	const p = "cpnn_server_replication_"
	obs.Gauge(e, p+"followers", "Currently connected replication followers.", rs.Followers)
	obs.Counter(e, p+"records_shipped_total", "WAL record frames sent to followers.", rs.RecordsShipped)
	obs.Counter(e, p+"bytes_shipped_total", "Op payload bytes sent to followers (matches WAL byte accounting).", rs.BytesShipped)
	obs.Counter(e, p+"snapshots_sent_total", "Snapshot bootstraps served to followers.", rs.SnapshotsSent)
	obs.Counter(e, p+"heartbeats_total", "Heartbeat frames sent to followers.", rs.Heartbeats)
	obs.Counter(e, p+"resyncs_total", "Followers transparently re-synced from the on-disk log after their live tail overflowed.", rs.Resyncs)
}
