// Package monitor is the continuous-query subsystem of the C-PNN engine: it
// maintains standing C-PNN / PNN / constrained-k-NN queries over the change
// feeds of a durable store — or of every member store of a shard cluster, see
// Source — and pushes answer updates as batches commit: the paper's
// motivating LBS and sensor scenarios, where object pdfs change continuously
// and clients care about the current answer, made incremental.
//
// The core idea is influence-region pruning. Every evaluation already
// computes a critical distance (the filtering bound f_min, or f_k for k-NN):
// an object whose region stays entirely farther from the query point
// provably cannot change the answer — it can neither join the candidate set
// nor move the filtering bound. The monitor indexes each standing query's
// influence interval [q−r, q+r] in an R-tree and, on every committed batch,
// spatially joins the batch's changed rectangles (old and new) against it.
// Only intersected queries re-evaluate; for everything else the previous
// answer is provably current. Localized updates therefore cost work
// proportional to the queries they can actually affect, not to the number of
// standing queries (O(affected) instead of O(queries × commits)).
//
// Re-evaluation runs on a bounded worker pool. Every evaluation, from
// scratch or incremental, borrows its scratch (candidate buffer, subregion
// table, fold arena) from core's one pool, as a stateless query does, so it
// obeys core's 1 MiB retention cap; a standing query's state keeps only its
// cached folds. Bursts coalesce: a query dirtied by
// several commits evaluates once, against the latest view. Answers are
// canonical JSON in stable-ID terms; a query is pushed to subscribers only
// when its answer actually changed. Slow subscribers are never waited on —
// their stream drops and they receive an explicit lagged event.
package monitor

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/store"
)

// ErrClosed is returned by operations on a closed monitor.
var ErrClosed = errors.New("monitor: closed")

// logger returns the configured structured logger, or a discard logger.
func (m *Monitor) logger() *slog.Logger { return obs.Or(m.cfg.Logger) }

// ErrUnknownMonitor marks operations addressing an unregistered monitor ID.
var ErrUnknownMonitor = errors.New("monitor: unknown monitor id")

// DefaultMaxMonitors caps registered standing queries.
const DefaultMaxMonitors = 65536

// DefaultMaxStateBytes caps the memory retained by per-query evaluation
// states (cached distance pdfs and the filter's ID scratch) when
// Config.MaxStateBytes is zero.
const DefaultMaxStateBytes = 64 << 20

// Config tunes a Monitor. One of Store and Source is required; every other
// zero value selects a sensible default.
type Config struct {
	// Store supplies the change feed and the views to evaluate against.
	Store *store.Store
	// Source, when set, replaces Store: the monitor stands on the source's
	// member stores and evaluates through it (a shard cluster's source is
	// shard.NewMonitorSource).
	Source Source
	// Workers bounds concurrent re-evaluations; 0 means GOMAXPROCS.
	Workers int
	// MaxStateBytes caps the memory retained across all per-query evaluation
	// states; least-recently-evaluated states are dropped when the cap is
	// exceeded (their queries transparently fall back to a full
	// re-derivation on their next triggering commit). 0 means
	// DefaultMaxStateBytes; negative disables the cap.
	MaxStateBytes int64
	// Logger receives structured monitor events (evaluation errors); nil
	// discards them.
	Logger *slog.Logger
	// PushLatency, when set, observes commit-to-push latency in seconds:
	// the time from the store commit that dirtied a standing query to the
	// push of its updated answer.
	PushLatency *obs.Histogram
}

// standing is one registered query.
type standing struct {
	id   uint64
	spec Spec

	rect geom.Rect // influence rect currently indexed
	cut  []uint64  // per-member versions of the last completed evaluation
	body []byte    // canonical answer at cut

	evaluating bool // a worker is evaluating this query right now
	redo       bool // dirtied again while evaluating; requeue on completion

	// pending accumulates, as its keys, the stable IDs changed by the
	// commits that dirtied this query since its last evaluation (the values
	// are unread, as for EvaluateIncremental); full marks the set as
	// non-exhaustive (feed gap, truncation, raced influence-rect growth),
	// forcing the next evaluation to re-derive everything. Both are guarded
	// by the monitor mutex; an evaluating worker owns a snapshot.
	pending map[uint64]int
	full    bool
	// dirtyAt is when the oldest unserviced dirtying commit landed (zero
	// when clean) — the start point of the push-latency measurement.
	dirtyAt time.Time

	// state is the persistent incremental-evaluation state (nil until the
	// first worker evaluation, and while evicted). The owning worker touches
	// it outside the lock during an evaluation; everyone else only under the
	// lock and only when evaluating is false.
	state      *core.EvalState
	stateBytes int64  // last accounted MemBytes share
	lastEval   uint64 // eviction clock (monitor.evalSeq at last evaluation)
}

// State is a read-only snapshot of one standing query.
type State struct {
	// ID is the monitor ID assigned at registration.
	ID uint64
	// Spec is the registered query.
	Spec Spec
	// Version is the version of the current answer: the store's view version,
	// or over a cluster the sum of the member versions it was evaluated at.
	Version uint64
	// Answer is the canonical answer body (JSON) at Version.
	Answer []byte
}

func (q *standing) snapshot() *State {
	return &State{ID: q.id, Spec: q.spec, Version: sum(q.cut), Answer: q.body}
}

// sum folds a per-member version cut into the one version clients see.
func sum(cut []uint64) (v uint64) {
	for _, c := range cut {
		v += c
	}
	return v
}

// Stats is a snapshot of the monitor's operational counters.
type Stats struct {
	// Active counts registered standing queries; Subscribers live
	// subscriptions.
	Active, Subscribers int
	// Version is the latest version the feed loops have consumed (summed
	// over the members when the monitor stands on a cluster).
	Version uint64
	// Deltas counts processed change-feed deltas; Gaps those that arrived as
	// lag gaps (forcing full re-evaluation).
	Deltas, Gaps uint64
	// Affected counts query re-evaluations scheduled by the spatial join;
	// Pruned counts standing queries a delta provably could not affect
	// (skipped entirely). Pruned/(Affected+Pruned) is the paper-style
	// saved-work fraction.
	Affected, Pruned uint64
	// ReEvals counts completed re-evaluations; Pushes those that changed the
	// answer and were fanned out.
	ReEvals, Pushes uint64
	// Dropped counts updates dropped on slow subscribers (each drop run ends
	// in one lagged event).
	Dropped uint64
	// Errors counts failed evaluations and unbuildable views — a non-zero
	// value means some standing answers may be stale until their next
	// triggering commit.
	Errors uint64
	// EarlyExits counts re-evaluations resolved by the incremental early
	// exit: the triggering changes provably could not alter the answer, so
	// no fold was derived and no verifier ran.
	EarlyExits uint64
	// TwoDFallbacks counts 2-D object changes the spatial join skipped.
	// Standing queries are 1-D (their evaluation never reads the view's
	// disks), so the skip is sound — the counter exists so the coverage gap
	// stays visible if 2-D standing queries are ever added.
	TwoDFallbacks uint64
	// IncrementalReused counts candidate folds served from per-query states;
	// IncrementalDerived counts folds actually recomputed. Their ratio is
	// the monitor-side derivation saving.
	IncrementalReused, IncrementalDerived uint64
	// StateBytes is the memory currently retained by per-query evaluation
	// states, StateQueries the number of queries holding one, and
	// StateEvictions the states dropped to respect Config.MaxStateBytes.
	StateBytes     int64
	StateQueries   int
	StateEvictions uint64
}

// Monitor maintains standing queries over its source's change feeds. Create
// one with New; it is safe for concurrent use.
type Monitor struct {
	cfg         Config         // Source is always set (New fills it from Store)
	stores      []*store.Store // cfg.Source.Stores(): feed i is stores[i]'s
	feeds       []*store.Sub
	incremental bool // per-query evaluation states are kept

	mu      sync.Mutex
	cond    *sync.Cond
	queries map[uint64]*standing
	qix     *rtree.Tree[uint64]
	nextID  uint64
	subs    map[*Subscription]struct{}

	// heads[i] is the newest view feed loop i has consumed and joined
	// against the standing queries; evaluations run on a snapshot of it.
	heads  []*store.View
	dirty  map[uint64]struct{}
	closed bool

	inflight int // workers currently evaluating

	evalSeq    uint64 // eviction clock, bumped per completed evaluation
	stateBytes int64  // total accounted per-query state memory

	wg sync.WaitGroup

	// counters, guarded by mu (the hot paths already hold it)
	nDeltas, nGaps, nAffected, nPruned, nReEvals, nPushes, nDropped, nErrors uint64
	nEarlyExits, nTwoDFallbacks, nStateEvictions, nIncReused, nIncDerived    uint64
}

// New builds and starts a monitor over the change feeds of cfg.Source's
// stores (of cfg.Store when no source is given).
func New(cfg Config) (*Monitor, error) {
	if cfg.Source == nil {
		if cfg.Store == nil {
			return nil, errors.New("monitor: Config.Store or Config.Source is required")
		}
		cfg.Source = &storeSource{st: cfg.Store}
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("monitor: workers %d < 1", cfg.Workers)
	}
	if cfg.MaxStateBytes == 0 {
		cfg.MaxStateBytes = DefaultMaxStateBytes
	}
	m := &Monitor{
		cfg:         cfg,
		stores:      cfg.Source.Stores(),
		incremental: cfg.Source.Incremental(),
		queries:     map[uint64]*standing{},
		qix:         rtree.NewDefault[uint64](),
		nextID:      1,
		subs:        map[*Subscription]struct{}{},
		dirty:       map[uint64]struct{}{},
	}
	m.cond = sync.NewCond(&m.mu)
	for _, st := range m.stores {
		// Subscribe before reading the head, so no commit falls between them.
		// Overflowing the buffer is safe (the feed delivers a Gap and the
		// monitor re-evaluates everything) but costs pruning.
		feed, err := st.Watch(store.DefaultWatchBuffer)
		if err != nil {
			m.closeFeeds()
			return nil, err
		}
		m.feeds = append(m.feeds, feed)
		m.heads = append(m.heads, st.View())
	}
	m.wg.Add(len(m.feeds) + cfg.Workers)
	for i := range m.feeds {
		go m.feedLoop(i)
	}
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

func (m *Monitor) closeFeeds() {
	for _, f := range m.feeds {
		f.Close()
	}
}

// Close stops the feed loops and workers and closes every subscription.
// Registered queries are discarded. Safe to call more than once.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	for sub := range m.subs {
		delete(m.subs, sub)
		close(sub.ch)
	}
	m.mu.Unlock()
	m.closeFeeds() // unblocks the feed loops
	m.wg.Wait()
}

// Register adds a standing query, evaluates it against the current view, and
// returns its initial state. From then on the query re-evaluates whenever a
// committed batch can affect it, and answer changes are pushed to
// subscribers.
func (m *Monitor) Register(spec Spec) (*State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.queries) >= DefaultMaxMonitors {
		m.mu.Unlock()
		return nil, fmt.Errorf("monitor: %d standing queries registered, limit %d",
			DefaultMaxMonitors, DefaultMaxMonitors)
	}
	heads := append([]*store.View(nil), m.heads...)
	m.mu.Unlock()

	q := &standing{spec: spec, cut: make([]uint64, len(heads))}
	body, radius, _, err := m.cfg.Source.Evaluate(Eval{Spec: spec, Heads: heads}, q.cut)
	if err != nil {
		return nil, err
	}
	q.rect, q.body = influenceRect(spec.Q, radius), body

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	q.id = m.nextID
	m.nextID++
	m.queries[q.id] = q
	if err := m.qix.Insert(q.rect, q.id); err != nil {
		delete(m.queries, q.id)
		return nil, err
	}
	// A commit may have slipped in between the evaluation above and the
	// index insert; it could not have seen this query in the join, so force
	// one catch-up evaluation.
	if m.pastLocked(q.cut) {
		m.dirty[q.id] = struct{}{}
		q.dirtyAt = time.Now()
		m.cond.Broadcast()
	}
	return q.snapshot(), nil
}

// Unregister removes a standing query, reporting whether it existed.
func (m *Monitor) Unregister(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return false
	}
	delete(m.queries, id)
	delete(m.dirty, id)
	m.stateBytes -= q.stateBytes
	q.stateBytes = 0
	m.qix.Delete(q.rect, func(v uint64) bool { return v == id })
	m.cond.Broadcast()
	return true
}

// Get returns a snapshot of one standing query.
func (m *Monitor) Get(id uint64) (*State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[id]
	if !ok {
		return nil, false
	}
	return q.snapshot(), true
}

// List returns a snapshot of every standing query, in ID order.
func (m *Monitor) List() []*State {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*State, 0, len(m.queries))
	for _, q := range m.queries {
		out = append(out, q.snapshot())
	}
	slices.SortFunc(out, func(a, b *State) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Stats returns a snapshot of the operational counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	stateQueries := 0
	for _, q := range m.queries {
		if q.state != nil {
			stateQueries++
		}
	}
	return Stats{
		Active:             len(m.queries),
		Subscribers:        len(m.subs),
		Version:            m.feedVersionLocked(),
		Deltas:             m.nDeltas,
		Gaps:               m.nGaps,
		Affected:           m.nAffected,
		Pruned:             m.nPruned,
		ReEvals:            m.nReEvals,
		Pushes:             m.nPushes,
		Dropped:            m.nDropped,
		Errors:             m.nErrors,
		EarlyExits:         m.nEarlyExits,
		TwoDFallbacks:      m.nTwoDFallbacks,
		IncrementalReused:  m.nIncReused,
		IncrementalDerived: m.nIncDerived,
		StateBytes:         m.stateBytes,
		StateQueries:       stateQueries,
		StateEvictions:     m.nStateEvictions,
	}
}

// Sync blocks until the monitor is quiescent at (at least) the stores'
// current versions: the feed loops have consumed every committed delta and
// no query is dirty or mid-evaluation. Tests and benchmarks use it as a
// commit barrier.
func (m *Monitor) Sync(timeout time.Duration) error {
	target := make([]uint64, len(m.stores))
	for i, st := range m.stores {
		target[i] = st.View().Version
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
			return ErrClosed
		}
		caughtUp := true
		for i, h := range m.heads {
			caughtUp = caughtUp && h.Version >= target[i]
		}
		if caughtUp && len(m.dirty) == 0 && m.inflight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor: sync: not quiescent at version %d after %v (feed %d, %d dirty, %d evaluating)",
				sum(target), timeout, m.feedVersionLocked(), len(m.dirty), m.inflight)
		}
		m.cond.Wait()
	}
}

// pastLocked reports whether some feed loop has consumed a version newer
// than cut's: commits were joined that an evaluation at cut did not see.
func (m *Monitor) pastLocked(cut []uint64) bool {
	for i, h := range m.heads {
		if h.Version > cut[i] {
			return true
		}
	}
	return false
}

func (m *Monitor) feedVersionLocked() (v uint64) {
	for _, h := range m.heads {
		v += h.Version
	}
	return v
}

// feedLoop consumes store i's change feed: for every committed delta it
// advances the feed's head view, joins the changed rectangles against the
// standing-query index, and dirties exactly the queries the batch can
// affect.
func (m *Monitor) feedLoop(i int) {
	defer m.wg.Done()
	for d := range m.feeds[i].C() {
		view := d.View
		if d.Gap {
			// The Gap marker's own view can predate later-dropped deltas;
			// the latest published view is ≥ every drop by the time the
			// marker is read, so resync from there.
			view = m.stores[i].View()
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		if view.Version <= m.heads[i].Version && !d.Gap && !d.Truncated {
			// Already subsumed by an earlier gap resync (normal deltas are
			// strictly increasing, so only a resync can put the head ahead);
			// the resync dirtied every query, covering these changes.
			m.cond.Broadcast()
			m.mu.Unlock()
			continue
		}
		if view.Version > m.heads[i].Version {
			m.heads[i] = view
		}
		m.nDeltas++

		var affected int
		if d.Gap || d.Truncated {
			if d.Gap {
				m.nGaps++
			}
			// The changed-ID set is unknowable (gap) or "everything"
			// (truncation): every query re-derives from scratch.
			now := time.Now()
			for id, q := range m.queries {
				m.dirty[id] = struct{}{}
				q.full = true
				if q.dirtyAt.IsZero() {
					q.dirtyAt = now
				}
			}
			affected = len(m.queries)
		} else {
			hit := map[uint64]struct{}{}
			for _, ch := range d.Changes {
				if ch.TwoD {
					// Standing queries are 1-D — evaluation never reads the
					// view's disks — so disk churn provably cannot touch
					// them. Counted so the skip stays visible (see
					// Stats.TwoDFallbacks) if 2-D standing queries land.
					m.nTwoDFallbacks++
					continue
				}
				collect := func(_ geom.Rect, id uint64) bool {
					hit[id] = struct{}{}
					if q := m.queries[id]; q != nil && m.incremental {
						if q.pending == nil {
							q.pending = map[uint64]int{}
						}
						q.pending[ch.ID] = 0
					}
					return true
				}
				if ch.Kind != store.ChangeInsert {
					m.qix.Search(ch.OldRect, collect)
				}
				if ch.Kind != store.ChangeDelete {
					m.qix.Search(ch.NewRect, collect)
				}
			}
			now := time.Now()
			for id := range hit {
				m.dirty[id] = struct{}{}
				if q := m.queries[id]; q != nil && q.dirtyAt.IsZero() {
					q.dirtyAt = now
				}
			}
			affected = len(hit)
		}
		m.nAffected += uint64(affected)
		m.nPruned += uint64(len(m.queries) - affected)
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// worker re-evaluates dirty queries against the latest head views, one at a
// time. Evaluations of one query never overlap: a query dirtied
// mid-evaluation is requeued when its evaluation completes.
func (m *Monitor) worker() {
	defer m.wg.Done()
	// Per-worker buffers, so an evaluation allocates nothing for its
	// bookkeeping: the head snapshot it runs on and the cut it reports.
	heads := make([]*store.View, len(m.stores))
	cut := make([]uint64, len(m.stores))
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return
		}
		var q *standing
		for id := range m.dirty {
			delete(m.dirty, id)
			st, ok := m.queries[id]
			if !ok {
				continue // unregistered while queued
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
		dirtyAt := q.dirtyAt
		q.dirtyAt = time.Time{}
		if m.incremental && q.state == nil {
			q.state = core.NewEvalState()
		}
		spec, state := q.spec, q.state
		copy(heads, m.heads)
		// Take ownership of the changed-ID snapshot; changes landing during
		// the evaluation start a fresh set (and set redo).
		ev := Eval{Spec: spec, Heads: heads, State: state, Changed: q.pending, Full: q.full}
		q.pending, q.full = nil, false
		m.mu.Unlock()

		body, radius, inc, err := m.cfg.Source.Evaluate(ev, cut)

		m.mu.Lock()
		m.inflight--
		m.nReEvals++
		m.nIncReused += uint64(inc.Reused)
		m.nIncDerived += uint64(inc.Derived)
		if err != nil {
			m.nErrors++
			m.logger().Warn("standing-query evaluation failed",
				"monitor_id", q.id, "kind", spec.Kind.String(), "err", err)
			if state != nil {
				state.Invalidate()
			}
			// The pending snapshot is consumed; whatever it said must be
			// re-derived whenever the query next evaluates.
			q.full = true
		}
		q.evaluating = false
		m.evalSeq++
		q.lastEval = m.evalSeq
		live := false
		if _, ok := m.queries[q.id]; ok {
			live = true
			if state != nil {
				nb := int64(state.MemBytes())
				m.stateBytes += nb - q.stateBytes
				q.stateBytes = nb
				m.evictStatesLocked()
			}
		}
		// Requeue when the query was dirtied mid-evaluation (redo) — and
		// also when a commit raced this evaluation AND the influence rect
		// grew: the raced commits' spatial joins ran against the
		// pre-evaluation rect, so a change inside the new annulus (outside
		// the old rect) was wrongly pruned. When the new rect stays within
		// the old one the raced joins already covered it (any relevant
		// change hit the old rect and set redo), so no requeue is needed —
		// which keeps sustained write load from degenerating into
		// re-evaluate-per-commit and lets Sync drain.
		rect := q.rect
		if err == nil && !inc.Skipped {
			rect = influenceRect(spec.Q, radius)
		}
		grew := !q.rect.Contains(rect)
		racedGrowth := grew && m.pastLocked(cut)
		if q.redo || racedGrowth {
			q.redo = false
			if live {
				m.dirty[q.id] = struct{}{}
				if q.dirtyAt.IsZero() {
					q.dirtyAt = time.Now()
				}
				if racedGrowth {
					// The wrongly-pruned annulus changes never reached
					// q.pending; only a full re-derivation is sound.
					q.full = true
				}
			}
		}
		if live && err == nil && newerCut(cut, q.cut) {
			if rect != q.rect {
				m.qix.Delete(q.rect, func(v uint64) bool { return v == q.id })
				if ierr := m.qix.Insert(rect, q.id); ierr == nil {
					q.rect = rect
				}
			}
			copy(q.cut, cut)
			if inc.Skipped {
				// The previous answer is provably current at this version;
				// nothing to serialize, diff or push.
				m.nEarlyExits++
			} else if !bytes.Equal(body, q.body) {
				q.body = body
				m.nPushes++
				if !dirtyAt.IsZero() {
					m.cfg.PushLatency.Observe(time.Since(dirtyAt).Seconds())
				}
				m.pushLocked(Update{
					ID: q.id, Version: sum(cut), Kind: spec.Kind.String(),
					Q: spec.Q, Answer: body,
				})
			}
		}
		m.cond.Broadcast() // wake Sync waiters and idle workers
	}
}

// newerCut reports whether cut a is at least as new as b on every member.
// Member versions are monotone and evaluations of one query are serialized,
// so a later evaluation's cut always dominates — the check guards the
// invariant rather than ordering concurrent evaluations.
func newerCut(a, b []uint64) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// evictStatesLocked drops least-recently-evaluated per-query states until
// the retained memory fits Config.MaxStateBytes. A state owned by an
// evaluating worker is never touched. Called with the monitor mutex held.
func (m *Monitor) evictStatesLocked() {
	max := m.cfg.MaxStateBytes
	if max < 0 {
		return
	}
	for m.stateBytes > max {
		var victim *standing
		for _, q := range m.queries {
			if q.state == nil || q.evaluating {
				continue
			}
			if victim == nil || q.lastEval < victim.lastEval {
				victim = q
			}
		}
		if victim == nil {
			return
		}
		m.stateBytes -= victim.stateBytes
		victim.state, victim.stateBytes = nil, 0
		m.nStateEvictions++
	}
}
