package server

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// localBackend serves the server's own current *Snapshot. Dataset-only,
// store, replica and shard-member servers are all this backend: newBackend
// picks whether it starts from the store's view or a seed dataset and what
// the view is labelled, and they differ afterwards in whether a store makes
// writes durable and in which gate applies — a replica refuses reads until
// its first catch-up and bounces writes to the primary, a shard member
// refuses client writes (the router owns placement).
type localBackend struct {
	s        *Server
	feedDone chan struct{} // snapshot-follower goroutine exit (store mode)
}

// newLocalBackend installs the initial snapshot — seed when it is non-nil,
// the store's current view labelled source otherwise — and, with a store
// attached, starts the continuous-query subsystem and the feed follower.
func newLocalBackend(s *Server, seed *uncertain.Dataset, source string) (*localBackend, error) {
	cfg := &s.cfg
	b := &localBackend{s: s}
	s.monitorsHint = "continuous queries require a store (run cpnn-serve with -data-dir)"
	if seed != nil {
		if _, err := s.Reload(seed, source); err != nil {
			return nil, err
		}
	} else if err := s.installLatestView(source); err != nil {
		return nil, err
	}
	s.m.reloads.Store(0) // the initial load is not a reload
	if cfg.Replica != nil {
		s.reg.Register(obs.CollectorFunc(s.collectFollower))
	}
	if cfg.Replication != nil {
		s.reg.Register(obs.CollectorFunc(s.collectReplication))
	}
	if cfg.Store == nil {
		return b, nil
	}
	s.reg.Register(obs.CollectorFunc(s.collectStore))
	// The continuous-query subsystem rides the store's change feed.
	if err := s.startMonitors(monitor.Config{Store: cfg.Store}, "cpnn_server_"); err != nil {
		return nil, err
	}
	// Follow the feed so the served snapshot (and therefore every cached
	// query) tracks commits from ANY writer, not only this server's own
	// /v1/objects handler. A tiny buffer suffices — the follower only ever
	// installs the latest view, so gaps are harmless.
	feed, err := cfg.Store.Watch(4)
	if err != nil {
		s.monitors.Close()
		return nil, err
	}
	b.feedDone = make(chan struct{})
	go func() {
		defer close(b.feedDone)
		// A commit that landed between the install above and Watch sent
		// this feed no notice (a replica's follower replays from the
		// moment it starts); install it now rather than at the next one.
		if cfg.Store.View().Version > s.snap.Load().Version {
			if err := s.installLatestView(s.snap.Load().Source); err != nil {
				s.m.followerErrors.Add(1)
			}
		}
		for range feed.C() {
			if err := s.installLatestView(s.snap.Load().Source); err != nil {
				// The snapshot silently freezing would be invisible;
				// surface it where operators already look.
				s.m.followerErrors.Add(1)
			}
		}
	}()
	return b, nil
}

// A local view is the already-loaded snapshot itself: pinning it allocates
// nothing and its key fragment was rendered at install time.

func (snap *Snapshot) key() string                                               { return snap.vkey }
func (snap *Snapshot) version() uint64                                           { return snap.Version }
func (snap *Snapshot) snapshot(context.Context, float64, int) (*Snapshot, error) { return snap, nil }

// admit rejects reads until a replica's first catch-up, so it never serves
// answers from a half-replayed bootstrap. The 503 carries Retry-After
// (writeError adds it), matching the drain protocol.
func (b *localBackend) admit() (view, error) {
	if f := b.s.cfg.Replica; f != nil && !f.CaughtUp() {
		return nil, &httpError{
			status: http.StatusServiceUnavailable,
			msg:    "replica: syncing, not yet caught up with the primary",
		}
	}
	return b.s.snap.Load(), nil
}

func (b *localBackend) admitWrite(r *http.Request, objects bool) error {
	cfg := &b.s.cfg
	switch {
	case objects && cfg.Store == nil:
		return &httpError{
			status: http.StatusNotImplemented,
			msg:    "object-level updates require a store (run cpnn-serve with -data-dir)",
		}
	case cfg.Replica != nil:
		// 307 to the primary's advertised HTTP address when the stream has
		// carried one (307 preserves method and body, so the client's write
		// replays verbatim), 403 when the primary never advertised.
		if base := cfg.Replica.PrimaryHTTP(); base != "" {
			target := strings.TrimSuffix(base, "/") + r.URL.RequestURI()
			return &httpError{
				status:   http.StatusTemporaryRedirect,
				msg:      "replica is read-only; write to the primary at " + target,
				location: target,
			}
		}
		return &httpError{
			status: http.StatusForbidden,
			msg:    "replica is read-only and the primary advertised no HTTP address",
		}
	case cfg.ShardMember:
		// The router owns ID assignment and shard placement, so a write
		// landing here directly would desynchronize its owner map.
		return &httpError{
			status: http.StatusForbidden,
			msg:    "shard member is write-protected; route writes through the shard router",
		}
	}
	return nil
}

// apply commits a validated op batch and publishes the resulting view.
func (b *localBackend) apply(_ context.Context, ops []store.Op) (store.ApplyResult, int, error) {
	st := b.s.cfg.Store
	res, err := st.Apply(ops)
	if err != nil {
		return res, 0, storeError(err)
	}
	if err := b.s.installLatestView(b.s.snap.Load().Source); err != nil {
		return res, 0, err
	}
	res.Version = b.s.snap.Load().Version
	return res, st.View().Dataset.Len(), nil
}

func (b *localBackend) reload(_ context.Context, ds *uncertain.Dataset, source string) (datasetResponse, error) {
	snap, err := b.s.Reload(ds, source)
	if err != nil {
		return datasetResponse{}, err
	}
	return snapshotInfo(snap), nil
}

func (b *localBackend) info() datasetResponse { return snapshotInfo(b.s.snap.Load()) }

func (b *localBackend) health(body map[string]any) {
	cfg := &b.s.cfg
	if cfg.Store != nil {
		// The store's own version/seq can briefly run ahead of the served
		// snapshot while a commit's view install is in flight; operators
		// watching compaction or replication lag want the durable truth.
		v := cfg.Store.View()
		body["store_version"] = v.Version
		body["store_seq"] = v.Seq
		body["role"] = cfg.Store.Role().String()
		st := cfg.Store.Stats()
		body["pagecache"] = map[string]any{
			"budget_bytes":   st.CacheBytes,
			"base_pages":     st.BasePages,
			"resident_pages": st.PageCache.ResidentPages,
			"hits":           st.PageCache.Hits,
			"misses":         st.PageCache.Misses,
			"evictions":      st.PageCache.Evictions,
			"overlay_slots":  st.OverlaySlots,
			"base_slots":     st.BaseSlots,
		}
	}
	if cfg.Replica != nil {
		body["replication"] = replicationHealth(cfg.Replica)
	}
	if cfg.Replication != nil {
		rst := cfg.Replication.Stats()
		body["replication_server"] = map[string]any{
			"addr":            cfg.Replication.Addr(),
			"followers":       rst.Followers,
			"records_shipped": rst.RecordsShipped,
			"bytes_shipped":   rst.BytesShipped,
			"snapshots_sent":  rst.SnapshotsSent,
		}
	}
}

// close takes a final checkpoint and closes the store the server owns.
func (b *localBackend) close() error {
	st := b.s.cfg.Store
	if st == nil {
		return nil
	}
	ckptErr := st.Checkpoint()
	err := st.Close()
	<-b.feedDone // the follower exits once the store closes its feed
	if err != nil {
		return err
	}
	return ckptErr
}
