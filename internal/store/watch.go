package store

import (
	"repro/internal/geom"
)

// The change feed turns the store's commit stream into push notifications:
// every committed group publishes one Delta — the new view plus the list of
// changed objects with their old and new bounding rectangles — to every
// subscriber. Continuous-query layers (internal/monitor) spatially join those
// rectangles against standing queries' influence regions, so only the queries
// a batch can possibly affect ever re-evaluate.
//
// Each delta also carries the group's WAL records, so the same feed is the
// replication log's live tail: SyncFrom registers a Watch at the position
// its history ends, and a replication server ships Delta.Records in order.
//
// Delivery is lossy under backpressure by design: a subscriber that cannot
// keep up has its stream cut and receives a single Gap delta instead, telling
// it to catch up from the latest view (a replication tail re-syncs from the
// on-disk log). Deltas are therefore never blocked on a slow consumer and the
// committer never waits.

// ChangeKind classifies one object change of a committed batch.
type ChangeKind uint8

const (
	// ChangeInsert is a newly created object; only NewRect is valid.
	ChangeInsert ChangeKind = iota + 1
	// ChangeUpdate replaced an object's region/pdf; OldRect and NewRect are
	// both valid.
	ChangeUpdate
	// ChangeDelete removed an object; only OldRect is valid.
	ChangeDelete
)

// String implements fmt.Stringer.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Change is one changed object of a committed batch, in stable-ID terms with
// the bounding rectangles a spatial join needs. For 1-D objects the rects are
// degenerate in y (RectFromInterval); for 2-D disks they are the disk MBRs.
type Change struct {
	// ID is the object's stable ID.
	ID uint64
	// Kind says whether the object was inserted, updated or deleted.
	Kind ChangeKind
	// TwoD marks a 2-D (disk) object.
	TwoD bool
	// OldRect bounds the object's region before the batch (update/delete).
	OldRect geom.Rect
	// NewRect bounds the object's region after the batch (insert/update).
	NewRect geom.Rect
}

// Delta is one committed group's effect, as delivered to Watch subscribers.
type Delta struct {
	// View is the MVCC view published by this commit; View.Version is
	// strictly increasing along one subscription.
	View *View
	// Changes lists the changed objects. Order follows op order; one object
	// touched several times in a group appears once per touch.
	Changes []Change
	// Truncated reports that the group wholesale-replaced the dataset
	// (OpTruncate, e.g. a POST /v1/dataset reload): Changes only covers ops
	// after the truncation and consumers must treat everything as changed.
	Truncated bool
	// Gap reports that this subscriber lagged and deltas were dropped:
	// Changes is nil and the consumer must catch up from Store.View() —
	// drops may continue after the marker was enqueued, so the marker's own
	// View can be older than the last dropped delta, while Store.View() at
	// read time is at least as new as every drop. After a Gap the stream
	// resumes normally; deltas read after the resync whose version the
	// resynced view already covers can be skipped.
	Gap bool
	// Records are the group's WAL records in sequence order, as replication
	// ships them. A Gap carries none, and neither does the Truncated delta
	// of a follower's snapshot install: that is a hole in the log, so a
	// replication tail meeting either re-syncs through SyncFrom.
	Records []LogRecord
}

// deltaRec accumulates a commit group's changes and WAL records as its
// batches stage.
type deltaRec struct {
	changes   []Change
	truncated bool
	records   []LogRecord
}

// Sub is one change-feed subscription. Receive deltas from C; Close releases
// the subscription. The channel is closed after Close, and when the store
// itself closes.
type Sub struct {
	st  *Store
	ch  chan Delta
	gap bool // set while the subscriber is lagging (guarded by st.watchMu)
}

// C returns the delta channel. Deltas arrive in version order; a Delta with
// Gap set replaces everything the subscriber was too slow to receive.
func (sub *Sub) C() <-chan Delta { return sub.ch }

// Close cancels the subscription and closes its channel. Safe to call once;
// concurrent with publishes.
func (sub *Sub) Close() {
	sub.st.watchMu.Lock()
	defer sub.st.watchMu.Unlock()
	if _, ok := sub.st.watchers[sub]; ok {
		delete(sub.st.watchers, sub)
		close(sub.ch)
	}
}

// DefaultWatchBuffer is the subscription buffer used when Watch is called
// with a non-positive buffer.
const DefaultWatchBuffer = 64

// Watch subscribes to the store's change feed. Each committed group delivers
// one Delta; a subscriber about to overflow its buffer receives one Gap
// delta in the reserved last slot instead (catch up from Store.View()), and
// further deltas are dropped until it has fully drained. The current view is
// NOT delivered — load s.View() first, then consume deltas; every delta with
// View.Version <= that view's version can be skipped. Buffers below 2 round
// up (the last slot is reserved for the Gap marker).
func (s *Store) Watch(buffer int) (*Sub, error) {
	if buffer <= 0 {
		buffer = DefaultWatchBuffer
	}
	if buffer < 2 {
		buffer = 2
	}
	sub := &Sub{st: s, ch: make(chan Delta, buffer)}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	// Checked under watchMu — the lock closeWatchers holds — so a Watch
	// racing Close can never register a subscription whose channel nothing
	// would ever close.
	if s.watchersClosed {
		return nil, ErrClosed
	}
	s.watchers[sub] = struct{}{}
	return sub, nil
}

// OfferLossy is the one lossy-feed protocol (the store's change feed and the
// monitor's subscriber fan-out both send through it): a sender that must
// never block offers v to a buffered channel whose last slot is reserved.
// With more than that slot free, v is sent. With only it left, v is dropped,
// marker takes the slot and *lagging is set, so the consumer learns it fell
// behind as soon as it drains its backlog even if nothing is offered again;
// every later v is dropped until the channel is empty, then delivery
// resumes. It reports whether v was sent; the caller counts the drops.
//
// ch needs capacity >= 2 and one sender at a time (whose lock also guards
// *lagging) over consumers that only drain: len can then only shrink under
// the sender, so a send decided here never blocks.
func OfferLossy[T any](ch chan T, lagging *bool, v, marker T) bool {
	if *lagging {
		if len(ch) > 0 {
			return false // still draining toward its marker
		}
		*lagging = false // caught up; resume delivery
	}
	if len(ch) < cap(ch)-1 {
		ch <- v
		return true
	}
	ch <- marker // the reserved slot
	*lagging = true
	return false
}

// publish delivers a commit group's delta to every subscriber through
// OfferLossy, so it never blocks the committer; the marker is a Gap delta
// carrying the view to catch up from.
func (s *Store) publish(view *View, rec *deltaRec) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	d := Delta{View: view, Changes: rec.changes, Truncated: rec.truncated, Records: rec.records}
	for sub := range s.watchers {
		if !OfferLossy(sub.ch, &sub.gap, d, Delta{View: view, Gap: true}) {
			s.watchDropped.Add(1)
		}
	}
}

// closeWatchers closes every live subscription and bars new ones; called
// once the committer has exited, so no publish can race the close.
func (s *Store) closeWatchers() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.watchersClosed = true
	for sub := range s.watchers {
		delete(s.watchers, sub)
		close(sub.ch)
	}
}
