package monitor

import (
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// Source is the one thing that differs between a monitor standing on a store
// and one standing on a shard cluster: where committed deltas come from and
// how a spec is evaluated at a consistent cut. Everything else — the
// influence-rect join, coalescing, the raced-growth requeue, state eviction,
// the push protocol — is the Monitor's and is shared.
type Source interface {
	// Stores returns the K ≥ 1 stores the monitor stands on, in member
	// order: their change feeds drive the spatial join and their current
	// versions are Sync's target.
	Stores() []*store.Store
	// Incremental reports whether Evaluate maintains Eval.State across the
	// evaluations of one query. A stateless source is handed a nil State and
	// re-derives every answer from scratch.
	Incremental() bool
	// Evaluate answers ev.Spec, returning the canonical body and influence
	// radius of Evaluate, and writes the per-store versions the answer
	// corresponds to into cut (len K). A stateful source must evaluate at
	// exactly ev.Heads — the views ev.Changed is relative to; a stateless one
	// may evaluate at any newer cut.
	Evaluate(ev Eval, cut []uint64) (body []byte, radius float64, inc core.IncrementalStats, err error)
}

// Eval is one evaluation request.
type Eval struct {
	Spec Spec
	// Heads[i] is the newest view of store i that the spatial join has
	// accounted for. The slice is the caller's; do not retain it.
	Heads []*store.View
	// State is the query's persistent evaluation state; nil evaluates from
	// scratch. Changed and Full describe what happened since State's last
	// evaluation, as for EvaluateIncremental.
	State   *core.EvalState
	Changed map[uint64]int
	Full    bool
}

// storeSource stands a monitor on one store: evaluations run on the feed's
// head view with per-query incremental state.
type storeSource struct {
	st *store.Store

	// eng is the engine over view, the newest head evaluated: a view's
	// engine (and its derivation memo) is built once per delta and shared by
	// every query the delta dirtied, not rebuilt per evaluation.
	mu   sync.Mutex
	view *store.View
	eng  *core.Engine
}

func (s *storeSource) Stores() []*store.Store { return []*store.Store{s.st} }
func (s *storeSource) Incremental() bool      { return true }

// engine returns the engine over view, building it on the first request.
func (s *storeSource) engine(view *store.View) (*core.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view != view {
		eng, err := core.NewEngineWithIndex(view.Dataset, view.Index)
		if err != nil {
			// An index/dataset mismatch is an internal invariant violation;
			// fall back to a bulk engine build rather than going dark.
			if eng, err = core.NewEngine(view.Dataset); err != nil {
				return nil, err
			}
		}
		s.view, s.eng = view, eng
	}
	return s.eng, nil
}

func (s *storeSource) Evaluate(ev Eval, cut []uint64) (body []byte, radius float64, inc core.IncrementalStats, err error) {
	view := ev.Heads[0]
	cut[0] = view.Version
	eng, err := s.engine(view)
	if err != nil {
		return nil, 0, inc, err
	}
	if ev.State != nil {
		return EvaluateIncremental(view, eng, ev.State, ev.Spec, ev.Changed, ev.Full)
	}
	body, radius, err = Evaluate(view, eng, nil, ev.Spec)
	return body, radius, inc, err
}
