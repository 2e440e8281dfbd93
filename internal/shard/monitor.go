package shard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/store"
)

// Monitor maintains standing queries over a local shard cluster: it watches
// every member store's change feed, joins the changed rectangles against the
// standing queries' influence regions (monitor.InfluenceRect — the same
// pruning argument as the single-store monitor), and re-evaluates affected
// queries through the router's scatter-gather, pushing an update only when
// the canonical answer body actually changed. Unlike the single-store
// monitor it always re-derives from scratch: a cluster evaluation is already
// a merged mini-dataset of just the candidates, so there is no per-query
// incremental state to maintain.
type Monitor struct {
	r      *Router
	stores []*store.Store
	feeds  []*store.Sub

	mu          sync.Mutex
	cond        *sync.Cond
	closed      bool
	nextID      uint64
	maxMonitors int

	queries  map[uint64]*standingQ
	dirty    map[uint64]struct{}
	inflight int
	// feedVers tracks the highest version each member feed loop has
	// consumed; Sync waits for it to reach the members' current versions.
	feedVers []uint64

	subs map[*Subscription]struct{}

	nDeltas, nGaps, nAffected, nPruned   uint64
	nReEvals, nPushes, nErrors, nDropped uint64
	nTwoDSkips                           uint64

	wg sync.WaitGroup
}

type standingQ struct {
	id   uint64
	spec monitor.Spec

	rect    geom.Rect // influence rect of the last completed evaluation
	version uint64    // cluster version sum of the current answer
	cut     []uint64  // per-member versions of the current answer
	body    []byte

	evaluating bool
	redo       bool
}

// MonitorConfig tunes a shard Monitor. Router and Stores are required and
// must describe the same cluster (Stores[i] is member i's store).
type MonitorConfig struct {
	Router *Router
	Stores []*store.Store
	// Workers bounds concurrent re-evaluations; 0 means 2.
	Workers int
	// FeedBuffer is each member's change-feed buffer; 0 means
	// store.DefaultWatchBuffer.
	FeedBuffer int
	// MaxMonitors caps registered standing queries; 0 means
	// monitor.DefaultMaxMonitors.
	MaxMonitors int
}

// NewMonitor subscribes to every member's change feed and starts the worker
// pool.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Router == nil || len(cfg.Stores) == 0 {
		return nil, fmt.Errorf("shard: monitor needs a router and member stores")
	}
	if len(cfg.Stores) != cfg.Router.Shards() {
		return nil, fmt.Errorf("shard: monitor got %d stores for %d shards",
			len(cfg.Stores), cfg.Router.Shards())
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxMonitors <= 0 {
		cfg.MaxMonitors = monitor.DefaultMaxMonitors
	}
	m := &Monitor{
		r:        cfg.Router,
		stores:   cfg.Stores,
		nextID:   1,
		queries:  map[uint64]*standingQ{},
		dirty:    map[uint64]struct{}{},
		feedVers: make([]uint64, len(cfg.Stores)),
		subs:     map[*Subscription]struct{}{},
	}
	m.cond = sync.NewCond(&m.mu)
	m.maxMonitors = cfg.MaxMonitors
	for i, st := range cfg.Stores {
		sub, err := st.Watch(cfg.FeedBuffer)
		if err != nil {
			m.closeFeeds()
			return nil, err
		}
		m.feeds = append(m.feeds, sub)
		m.feedVers[i] = st.View().Version
	}
	for i := range m.feeds {
		m.wg.Add(1)
		go m.feedLoop(i)
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

func (m *Monitor) closeFeeds() {
	for _, f := range m.feeds {
		f.Close()
	}
}

// Register adds a standing query: it is evaluated synchronously through the
// router (so the returned state carries the current answer) and then kept
// current by the feeds.
func (m *Monitor) Register(spec monitor.Spec) (*monitor.State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	body, radius, g, err := m.r.Evaluate(context.Background(), spec, nil)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, monitor.ErrClosed
	}
	if len(m.queries) >= m.maxMonitors {
		return nil, fmt.Errorf("shard: monitor limit (%d) reached", m.maxMonitors)
	}
	id := m.nextID
	m.nextID++
	q := &standingQ{
		id: id, spec: spec,
		rect:    monitor.InfluenceRect(spec.Q, radius),
		version: g.Version,
		cut:     g.Versions,
		body:    body,
	}
	m.queries[id] = q
	// The synchronous evaluation raced the feeds: commits consumed after the
	// Gather cut joined against nothing (the query was not registered yet).
	// Dirty it once so the first background pass re-establishes currency.
	m.dirty[id] = struct{}{}
	m.cond.Broadcast()
	return &monitor.State{ID: id, Spec: spec, Version: g.Version, Answer: body}, nil
}

// Unregister removes a standing query, reporting whether it existed.
func (m *Monitor) Unregister(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.queries[id]; !ok {
		return false
	}
	delete(m.queries, id)
	delete(m.dirty, id)
	return true
}

// Get snapshots one standing query's current answer.
func (m *Monitor) Get(id uint64) (*monitor.State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return nil, false
	}
	return &monitor.State{ID: q.id, Spec: q.spec, Version: q.version,
		Answer: append([]byte(nil), q.body...)}, true
}

// List snapshots every standing query, ascending by ID.
func (m *Monitor) List() []*monitor.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*monitor.State, 0, len(m.queries))
	for _, q := range m.queries {
		out = append(out, &monitor.State{ID: q.id, Spec: q.spec, Version: q.version,
			Answer: append([]byte(nil), q.body...)})
	}
	sortStates(out)
	return out
}

func sortStates(s []*monitor.State) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].ID > s[j].ID; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// Sync blocks until every answer reflects at least the member versions
// current at the call, or the timeout elapses. The quiescence condition
// mirrors the single-store monitor: feeds caught up, no dirty queries, no
// evaluation in flight.
func (m *Monitor) Sync(timeout time.Duration) error {
	targets := make([]uint64, len(m.stores))
	for i, st := range m.stores {
		targets[i] = st.View().Version
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return monitor.ErrClosed
		}
		caught := true
		for i, t := range targets {
			if m.feedVers[i] < t {
				caught = false
				break
			}
		}
		if caught && len(m.dirty) == 0 && m.inflight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: monitor sync: not quiescent after %v (%d dirty, %d evaluating)",
				timeout, len(m.dirty), m.inflight)
		}
		m.cond.Wait()
	}
}

// feedLoop consumes member i's change feed, dirtying exactly the standing
// queries the batch can affect.
func (m *Monitor) feedLoop(i int) {
	defer m.wg.Done()
	for d := range m.feeds[i].C() {
		ver := d.View.Version
		if d.Gap {
			// Drops may continue past the marker; the member's live view is
			// at least as new as every drop.
			ver = m.stores[i].View().Version
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		if ver > m.feedVers[i] {
			m.feedVers[i] = ver
		}
		m.nDeltas++
		affected := 0
		if d.Gap || d.Truncated {
			if d.Gap {
				m.nGaps++
			}
			for id := range m.queries {
				m.dirty[id] = struct{}{}
			}
			affected = len(m.queries)
		} else {
			for _, ch := range d.Changes {
				if ch.TwoD {
					// Standing queries are 1-D; disk churn cannot touch them.
					m.nTwoDSkips++
					continue
				}
				for id, q := range m.queries {
					if _, hit := m.dirty[id]; hit {
						continue
					}
					if (ch.Kind != store.ChangeInsert && q.rect.Intersects(ch.OldRect)) ||
						(ch.Kind != store.ChangeDelete && q.rect.Intersects(ch.NewRect)) {
						m.dirty[id] = struct{}{}
						affected++
					}
				}
			}
		}
		m.nAffected += uint64(affected)
		if n := len(m.queries) - affected; n > 0 {
			m.nPruned += uint64(n)
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// worker re-evaluates dirty queries through the router. Evaluations of one
// query never overlap; a query dirtied mid-evaluation requeues on
// completion, and so does one whose influence rect grew while a member feed
// advanced past the evaluation's cut (the raced joins pruned against the
// smaller rect — same soundness hole, and same fix, as the single-store
// monitor's racedGrowth requeue).
func (m *Monitor) worker() {
	defer m.wg.Done()
	sc := core.NewScratch()
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return
		}
		var q *standingQ
		for id := range m.dirty {
			delete(m.dirty, id)
			st, ok := m.queries[id]
			if !ok {
				continue
			}
			if st.evaluating {
				st.redo = true
				continue
			}
			q = st
			break
		}
		if q == nil {
			m.cond.Wait()
			continue
		}
		q.evaluating = true
		m.inflight++
		spec := q.spec
		m.mu.Unlock()

		body, radius, g, err := m.r.Evaluate(context.Background(), spec, sc)

		m.mu.Lock()
		m.inflight--
		m.nReEvals++
		q.evaluating = false
		live := m.queries[q.id] == q
		if err != nil {
			m.nErrors++
			if live {
				// The answer may be stale; try again on the next commit — and
				// immediately if one already raced this failed evaluation.
				if q.redo {
					q.redo = false
					m.dirty[q.id] = struct{}{}
				}
			}
			m.cond.Broadcast()
			continue
		}
		rect := monitor.InfluenceRect(spec.Q, radius)
		raced := false
		for i, v := range g.Versions {
			if m.feedVers[i] > v {
				raced = true
				break
			}
		}
		if q.redo || (raced && !q.rect.Contains(rect)) {
			q.redo = false
			if live {
				m.dirty[q.id] = struct{}{}
			}
		}
		if live && newerCut(g.Versions, q.cut) {
			q.rect = rect
			q.version = g.Version
			q.cut = g.Versions
			if !bytes.Equal(body, q.body) {
				q.body = body
				m.nPushes++
				m.pushLocked(monitor.Update{
					ID: q.id, Version: g.Version, Kind: spec.Kind.String(),
					Q: spec.Q, Answer: body,
				})
			}
		}
		m.cond.Broadcast()
	}
}

// newerCut reports whether cut a is at least as new as b on every member.
// Member versions are monotone and evaluations of one query are serialized,
// so a later evaluation's cut always dominates — the check guards the
// invariant rather than ordering concurrent evaluations.
func newerCut(a, b []uint64) bool {
	if len(b) == 0 {
		return true
	}
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// Stats is a snapshot of the shard monitor's counters (a subset of the
// single-store monitor's, with identical meanings).
type MonitorStats struct {
	Active, Subscribers        int
	Deltas, Gaps               uint64
	Affected, Pruned           uint64
	ReEvals, Pushes            uint64
	Errors, Dropped, TwoDSkips uint64
	FeedVersions               []uint64
}

// Stats snapshots the monitor's counters.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorStats{
		Active:       len(m.queries),
		Subscribers:  len(m.subs),
		Deltas:       m.nDeltas,
		Gaps:         m.nGaps,
		Affected:     m.nAffected,
		Pruned:       m.nPruned,
		ReEvals:      m.nReEvals,
		Pushes:       m.nPushes,
		Errors:       m.nErrors,
		Dropped:      m.nDropped,
		TwoDSkips:    m.nTwoDSkips,
		FeedVersions: append([]uint64(nil), m.feedVers...),
	}
}

// Close stops the feeds and workers and closes every subscription.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for sub := range m.subs {
		delete(m.subs, sub)
		close(sub.ch)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.closeFeeds()
	m.wg.Wait()
}
