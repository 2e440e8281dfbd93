package monitor

import (
	"encoding/json"

	"repro/internal/store"
)

// Update is one pushed answer change.
type Update struct {
	// ID is the standing query's monitor ID.
	ID uint64 `json:"id"`
	// Version is the view version the answer was evaluated at.
	Version uint64 `json:"version"`
	// Kind is the query kind ("cpnn", "pnn", "knn").
	Kind string `json:"kind"`
	// Q is the standing query point.
	Q float64 `json:"q"`
	// Answer is the canonical answer body at Version.
	Answer json.RawMessage `json:"answer"`
}

// EventType labels a subscription event.
type EventType uint8

const (
	// EventUpdate carries a changed answer.
	EventUpdate EventType = iota + 1
	// EventLagged reports that updates were dropped because the subscriber
	// fell behind; resynchronize via Monitor.Get/List.
	EventLagged
)

// Event is one subscription delivery.
type Event struct {
	Type EventType
	// Update is valid for EventUpdate.
	Update Update
}

// DefaultSubscriptionBuffer is the per-subscription event buffer used when
// Subscribe is called with a non-positive buffer.
const DefaultSubscriptionBuffer = 64

// Subscription is one consumer of pushed updates. Receive events from C;
// Close releases it. A subscription that cannot drain its buffer never
// blocks the monitor: pending updates are dropped and one EventLagged is
// delivered as soon as the buffer has room.
type Subscription struct {
	m   *Monitor
	ids map[uint64]struct{} // nil = all standing queries
	ch  chan Event

	lagged bool // guarded by m.mu
}

// C returns the event channel. It is closed by Close and when the monitor
// closes.
func (s *Subscription) C() <-chan Event { return s.ch }

// Close cancels the subscription and closes its channel. Idempotent.
func (s *Subscription) Close() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if _, ok := s.m.subs[s]; ok {
		delete(s.m.subs, s)
		close(s.ch)
	}
}

// Subscribe registers a consumer for pushed updates. ids narrows delivery to
// those monitor IDs; empty/nil subscribes to every standing query (including
// ones registered later). buffer bounds the event backlog; non-positive
// means DefaultSubscriptionBuffer, and buffers below 2 round up (one slot is
// reserved for the in-stream lagged marker).
func (m *Monitor) Subscribe(ids []uint64, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = DefaultSubscriptionBuffer
	}
	if buffer < 2 {
		buffer = 2
	}
	sub := &Subscription{m: m, ch: make(chan Event, buffer)}
	if len(ids) > 0 {
		sub.ids = make(map[uint64]struct{}, len(ids))
		for _, id := range ids {
			sub.ids[id] = struct{}{}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.subs[sub] = struct{}{}
	return sub, nil
}

// pushLocked fans an update out to every matching subscription; m.mu held.
// Delivery goes through store.OfferLossy — the change feed's protocol — so
// it never blocks the monitor; the marker is a bare EventLagged.
func (m *Monitor) pushLocked(u Update) {
	for sub := range m.subs {
		if sub.ids != nil {
			if _, ok := sub.ids[u.ID]; !ok {
				continue
			}
		}
		if !store.OfferLossy(sub.ch, &sub.lagged, Event{Type: EventUpdate, Update: u}, Event{Type: EventLagged}) {
			m.nDropped++
		}
	}
}
