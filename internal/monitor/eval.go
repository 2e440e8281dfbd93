package monitor

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/verify"
)

// Kind selects the standing-query flavor.
type Kind uint8

const (
	// KindCPNN is a standing constrained PNN (threshold + tolerance).
	KindCPNN Kind = iota + 1
	// KindPNN is a standing unconstrained PNN (exact probabilities).
	KindPNN
	// KindKNN is a standing constrained k-NN (exact, over a table cut at f_k).
	KindKNN
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPNN:
		return "cpnn"
	case KindPNN:
		return "pnn"
	case KindKNN:
		return "knn"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses the wire name of a query kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "cpnn":
		return KindCPNN, nil
	case "pnn":
		return KindPNN, nil
	case "knn":
		return KindKNN, nil
	default:
		return 0, fmt.Errorf("monitor: unknown query kind %q (cpnn, pnn, knn)", s)
	}
}

// Spec describes one standing query. Constraint applies to KindCPNN and
// KindKNN; K to KindKNN. A standing C-PNN runs the paper's method, VR: the
// baselines are not served.
type Spec struct {
	Kind       Kind
	Q          float64
	Constraint verify.Constraint
	K          int
}

// Validate rejects malformed specs before they are registered.
func (sp Spec) Validate() error {
	if math.IsNaN(sp.Q) || math.IsInf(sp.Q, 0) {
		return fmt.Errorf("monitor: non-finite query point %g", sp.Q)
	}
	switch sp.Kind {
	case KindCPNN, KindKNN:
		if err := sp.Constraint.Validate(); err != nil {
			return err
		}
		if sp.Kind == KindKNN && sp.K < 1 {
			return fmt.Errorf("monitor: k = %d < 1", sp.K)
		}
	case KindPNN:
	default:
		return fmt.Errorf("monitor: unknown query kind %d", sp.Kind)
	}
	return nil
}

// maxCoord bounds the synthetic influence interval that stands in for an
// unbounded radius; it stays finite so R-tree arithmetic (areas, margins,
// enlargement deltas) never overflows into Inf−Inf = NaN.
const maxCoord = math.MaxFloat64 / 4

// answerJSON is one classified object of a canonical answer body, in
// stable-ID terms.
type answerJSON struct {
	ID     uint64  `json:"id"`
	L      float64 `json:"l"`
	U      float64 `json:"u"`
	Status string  `json:"status"`
}

// probJSON is one entry of a PNN answer body.
type probJSON struct {
	ID uint64  `json:"id"`
	P  float64 `json:"p"`
}

// round9 rounds to 9 decimal places. Answer bodies are compared byte-wise to
// decide whether to push; probability sums and products inside the engine
// run in dense-slot order, so an unrelated delete (which reshuffles slots)
// can perturb the last couple of float bits of an otherwise-unchanged
// answer. Quantizing far below any meaningful precision (the paper's Δ is
// 0.01) and far above the ~1e-16 relative jitter makes "unchanged" robust.
func round9(v float64) float64 { return math.Round(v*1e9) / 1e9 }

// Evaluate computes the canonical answer body of a spec against one MVCC
// view, plus the query's influence radius: the critical distance within
// which a changed object can possibly alter the answer (math.Inf(1) when
// every change can, e.g. on an empty dataset). The body is a deterministic
// function of the view's stable-ID object set — evaluating the same spec at
// any view holding the same objects yields identical bytes.
//
// eng must be an engine over view's dataset and index. The evaluation runs
// on a scratch from core's pool. The third parameter is ignored: it exists
// only because the monitor_push workload (bench/monitorpush.go) still
// passes nil there.
func Evaluate(view *store.View, eng *core.Engine, _ any, spec Spec) (body []byte, radius float64, err error) {
	n := view.Dataset.Len()
	switch spec.Kind {
	case KindCPNN:
		res, err := eng.CPNN(spec.Q, spec.Constraint, core.Options{})
		if err != nil {
			return nil, 0, err
		}
		body, err = marshalCPNN(view, res.Answers)
		return body, boundedRadius(n > 0, res.Stats.FMin), err

	case KindPNN:
		probs, st, err := eng.PNN(spec.Q, core.Options{})
		if err != nil {
			return nil, 0, err
		}
		body, err = marshalPNN(view, probs)
		return body, boundedRadius(n > 0, st.FMin), err

	case KindKNN:
		answers, st, err := eng.CKNN(spec.Q, spec.Constraint, core.KNNOptions{K: spec.K})
		if err != nil {
			return nil, 0, err
		}
		body, err = marshalKNN(view, answers)
		// With fewer than K objects, any insert anywhere joins the k-NN set:
		// the critical distance f_k only prunes when at least K objects exist.
		return body, boundedRadius(n >= spec.K && n > 0, st.FMin), err

	default:
		return nil, 0, fmt.Errorf("monitor: unknown query kind %d", spec.Kind)
	}
}

// EvaluateIncremental is Evaluate over a persistent per-query evaluation
// state: unchanged candidates keep their cached distance pdfs, only changed
// and arriving ones are derived, and the subregion table is rebuilt once on
// a scratch from core's pool; when the triggering changes provably cannot
// alter the answer the verifier is skipped entirely (inc.Skipped: body is nil
// and the previous answer stands, radius is unchanged). changed's keys are
// the stable IDs modified since the state's last evaluation; its values are
// not read. full forces a complete re-derivation (feed gaps, truncations,
// raced influence-rect growth — any time the changed set is not
// exhaustive). Bodies are byte-identical to Evaluate on the same view, and
// eng is, as for Evaluate, an engine over view's dataset and index.
func EvaluateIncremental(view *store.View, eng *core.Engine, st *core.EvalState, spec Spec, changed map[uint64]int, full bool) (body []byte, radius float64, inc core.IncrementalStats, err error) {
	if full {
		changed = nil // CPNNIncremental & co. treat nil as "everything changed"
	}
	ids := stableIDs(view)
	n := view.Dataset.Len()
	switch spec.Kind {
	case KindCPNN:
		res, inc, err := eng.CPNNIncremental(spec.Q, spec.Constraint, core.Options{}, st, ids, changed)
		if err != nil || inc.Skipped {
			return nil, 0, inc, err
		}
		body, err = marshalCPNN(view, res.Answers)
		return body, boundedRadius(n > 0, res.Stats.FMin), inc, err

	case KindPNN:
		probs, pst, inc, err := eng.PNNIncremental(spec.Q, core.Options{}, st, ids, changed)
		if err != nil || inc.Skipped {
			return nil, 0, inc, err
		}
		body, err = marshalPNN(view, probs)
		return body, boundedRadius(n > 0, pst.FMin), inc, err

	case KindKNN:
		answers, kst, inc, err := eng.KNNIncremental(spec.Q, spec.Constraint, core.KNNOptions{K: spec.K}, st, ids, changed)
		if err != nil || inc.Skipped {
			return nil, 0, inc, err
		}
		body, err = marshalKNN(view, answers)
		return body, boundedRadius(n >= spec.K && n > 0, kst.FMin), inc, err

	default:
		return nil, 0, inc, fmt.Errorf("monitor: unknown query kind %d", spec.Kind)
	}
}

// marshalCPNN renders the canonical CPNN answer body: satisfying objects in
// stable-ID terms, bounds quantized (see round9), sorted by ID.
func marshalCPNN(view *store.View, answers []core.Answer) ([]byte, error) {
	out := make([]answerJSON, 0, len(answers))
	for _, a := range answers {
		out = append(out, answerJSON{
			ID: stableID(view, a.ID), L: round9(a.Bounds.L), U: round9(a.Bounds.U),
			Status: a.Status.String(),
		})
	}
	slices.SortFunc(out, func(a, b answerJSON) int { return cmp.Compare(a.ID, b.ID) })
	return json.Marshal(struct {
		Answers []answerJSON `json:"answers"`
	}{out})
}

// marshalPNN renders the canonical PNN answer body.
func marshalPNN(view *store.View, probs []core.Probability) ([]byte, error) {
	out := make([]probJSON, 0, len(probs))
	for _, p := range probs {
		out = append(out, probJSON{ID: stableID(view, p.ID), P: round9(p.P)})
	}
	slices.SortFunc(out, func(a, b probJSON) int { return cmp.Compare(a.ID, b.ID) })
	return json.Marshal(struct {
		Probabilities []probJSON `json:"probabilities"`
	}{out})
}

// marshalKNN renders the canonical k-NN answer body: the satisfying objects,
// as marshalCPNN renders a C-PNN's. It filters answers in place.
func marshalKNN(view *store.View, answers []core.KNNAnswer) ([]byte, error) {
	return marshalCPNN(view, slices.DeleteFunc(answers, func(a core.KNNAnswer) bool {
		return a.Status != verify.Satisfy
	}))
}

// stableID translates a dense engine ID through the view's stable-ID map.
func stableID(view *store.View, dense int) uint64 {
	if view.IDs == nil {
		return uint64(dense)
	}
	return view.IDs[dense]
}

// stableIDs returns the view's stable-ID map, synthesizing the identity for
// views without one: the incremental entry points key their state by it.
func stableIDs(view *store.View) []uint64 {
	if view.IDs != nil {
		return view.IDs
	}
	ids := make([]uint64, view.Dataset.Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// boundedRadius returns the influence radius, widening to +Inf when the
// critical-distance argument does not apply (empty dataset, k-NN with fewer
// than K objects).
func boundedRadius(ok bool, r float64) float64 {
	if !ok {
		return math.Inf(1)
	}
	return r
}

// influenceRect is the query's standing entry in the monitor's R-tree: every
// object whose region stays outside it provably cannot change the answer.
// Unbounded radii clamp to a huge finite interval (see maxCoord).
func influenceRect(q, radius float64) geom.Rect {
	lo, hi := q-radius, q+radius
	if math.IsInf(radius, 1) || lo < -maxCoord || hi > maxCoord {
		lo, hi = -maxCoord, maxCoord
	}
	return geom.Rect{MinX: lo, MinY: 0, MaxX: hi, MaxY: 0}
}
