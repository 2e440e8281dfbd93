package monitor

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

const syncTimeout = 10 * time.Second

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedObjects commits a small, well-separated 1-D dataset and returns the
// assigned stable IDs.
func seedObjects(t *testing.T, s *store.Store, lohi ...float64) []uint64 {
	t.Helper()
	var ops []store.Op
	for i := 0; i+1 < len(lohi); i += 2 {
		ops = append(ops, store.InsertObject(pdf.MustUniform(lohi[i], lohi[i+1])))
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	return res.IDs
}

func newMonitor(t *testing.T, s *store.Store) *Monitor {
	t.Helper()
	m, err := New(Config{Store: s, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func cpnnSpec(q float64) Spec {
	return Spec{Kind: KindCPNN, Q: q, Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}
}

// TestRegisterInitialAnswer: registration returns the same canonical body a
// direct evaluation produces, and Get mirrors it.
func TestRegisterInitialAnswer(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15, 100, 110)
	m := newMonitor(t, s)

	st, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Evaluate(s.View(), nil, nil, cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Answer) != string(fresh) {
		t.Fatalf("initial answer %s != fresh %s", st.Answer, fresh)
	}
	if st.Version != s.View().Version {
		t.Fatalf("initial version %d != store %d", st.Version, s.View().Version)
	}
	got, ok := m.Get(st.ID)
	if !ok || string(got.Answer) != string(fresh) {
		t.Fatalf("Get mismatch: %v %s", ok, got.Answer)
	}
	if n := len(m.List()); n != 1 {
		t.Fatalf("List holds %d queries, want 1", n)
	}

	// Invalid specs are rejected.
	if _, err := m.Register(Spec{Kind: KindCPNN, Q: 1}); err == nil {
		t.Fatal("zero constraint should be rejected")
	}
	if _, err := m.Register(Spec{Kind: KindKNN, Q: 1, Constraint: verify.Constraint{P: 0.5}}); err == nil {
		t.Fatal("k-NN without K should be rejected")
	}
}

// TestPushOnRelevantChange: a change inside the influence region triggers
// re-evaluation and, when the answer changes, exactly one pushed update that
// matches a fresh evaluation.
func TestPushOnRelevantChange(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15, 1000, 1010)
	m := newMonitor(t, s)

	st, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Move an in-region object far away: the candidate set shrinks.
	if _, err := s.Apply([]store.Op{store.UpdateObject(ids[1], pdf.MustUniform(2000, 2010))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C():
		if ev.Type != EventUpdate || ev.Update.ID != st.ID {
			t.Fatalf("event = %+v", ev)
		}
		fresh, _, err := Evaluate(s.View(), nil, nil, cpnnSpec(7))
		if err != nil {
			t.Fatal(err)
		}
		if string(ev.Update.Answer) != string(fresh) {
			t.Fatalf("pushed %s != fresh %s", ev.Update.Answer, fresh)
		}
		if ev.Update.Version != s.View().Version {
			t.Fatalf("pushed version %d != %d", ev.Update.Version, s.View().Version)
		}
	default:
		t.Fatal("expected a pushed update")
	}
	if got := m.Stats(); got.ReEvals == 0 || got.Pushes != 1 {
		t.Fatalf("stats = %+v, want ReEvals>0 Pushes=1", got)
	}
}

// TestPruningSkipsUnrelatedChanges: churn far outside every influence region
// must not re-evaluate anything, yet the stored answers stay correct.
func TestPruningSkipsUnrelatedChanges(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15, 5000, 5010)
	m := newMonitor(t, s)

	if _, err := m.Register(cpnnSpec(7)); err != nil {
		t.Fatal(err)
	}
	base := m.Stats()

	// Insert/update/delete activity clustered around x=9000, far beyond the
	// query's critical distance (~15).
	res, err := s.Apply([]store.Op{store.InsertObject(pdf.MustUniform(9000, 9010))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]store.Op{store.UpdateObject(res.IDs[0], pdf.MustUniform(9100, 9110))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]store.Op{store.Delete(res.IDs[0])}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	got := m.Stats()
	if got.ReEvals != base.ReEvals {
		t.Fatalf("far-away churn re-evaluated: %+v", got)
	}
	if got.Pruned != base.Pruned+3 {
		t.Fatalf("pruned = %d, want %d", got.Pruned, base.Pruned+3)
	}
	// The pruned answer is still the correct answer at the latest version.
	st := m.List()[0]
	fresh, _, err := Evaluate(s.View(), nil, nil, st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Answer) != string(fresh) {
		t.Fatalf("pruned answer %s != fresh %s", st.Answer, fresh)
	}
}

// TestTruncationReevaluatesAll: a dataset reload dirties every standing
// query.
func TestTruncationReevaluatesAll(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15)
	m := newMonitor(t, s)
	if _, err := m.Register(cpnnSpec(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(cpnnSpec(12)); err != nil {
		t.Fatal(err)
	}
	base := m.Stats()
	if _, err := s.Apply([]store.Op{store.Truncate(), store.InsertObject(pdf.MustUniform(6, 8))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	got := m.Stats()
	if got.ReEvals < base.ReEvals+2 {
		t.Fatalf("truncation re-evaluated %d queries, want 2", got.ReEvals-base.ReEvals)
	}
	for _, st := range m.List() {
		fresh, _, err := Evaluate(s.View(), nil, nil, st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(st.Answer) != string(fresh) {
			t.Fatalf("monitor %d: %s != fresh %s", st.ID, st.Answer, fresh)
		}
	}
}

// TestKNNUnderfilledIsUnbounded: with fewer than K objects the influence
// region is unbounded — an insert arbitrarily far away must still trigger
// re-evaluation (it joins the k-NN set with certainty).
func TestKNNUnderfilledIsUnbounded(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10)
	m := newMonitor(t, s)
	spec := Spec{Kind: KindKNN, Q: 5, Constraint: verify.Constraint{P: 0.5, Delta: 0.05},
		K: 3, Samples: 500, Seed: 1}
	st, err := m.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]store.Op{store.InsertObject(pdf.MustUniform(90000, 90010))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get(st.ID)
	fresh, _, err := Evaluate(s.View(), nil, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Answer) != string(fresh) {
		t.Fatalf("underfilled k-NN missed the far insert: %s != %s", got.Answer, fresh)
	}
	var parsed struct {
		Answers []struct {
			ID uint64 `json:"id"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(got.Answer, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Answers) != 2 {
		t.Fatalf("answer %s, want both objects certain members", got.Answer)
	}
}

// TestSubscriptionFilteringAndLag: id-filtered subscriptions only see their
// monitors; a subscriber that never drains gets a lagged event once room
// frees up.
func TestSubscriptionFilteringAndLag(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15, 30, 40)
	m := newMonitor(t, s)

	a, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Register(cpnnSpec(35))
	if err != nil {
		t.Fatal(err)
	}
	subB, err := m.Subscribe([]uint64{b.ID}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	// Buffer of 1: the second push must drop and surface as lagged.
	subAll, err := m.Subscribe(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer subAll.Close()

	// Three successive moves of object 0 change monitor A's answer each time.
	for i, lo := range []float64{3, 18, 2} {
		if _, err := s.Apply([]store.Op{store.UpdateObject(ids[0], pdf.MustUniform(lo, lo+2))}); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(syncTimeout); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	select {
	case ev := <-subB.C():
		t.Fatalf("filtered subscription got %+v for monitor %d", ev, a.ID)
	default:
	}
	ev1 := <-subAll.C()
	if ev1.Type != EventUpdate || ev1.Update.ID != a.ID {
		t.Fatalf("first event = %+v", ev1)
	}
	ev2 := <-subAll.C()
	if ev2.Type != EventLagged {
		t.Fatalf("second event = %+v, want lagged", ev2)
	}
	if m.Stats().Dropped == 0 {
		t.Fatal("expected dropped updates on the full subscription")
	}
}

// TestUnregisterStopsUpdates: an unregistered query neither evaluates nor
// pushes again.
func TestUnregisterStopsUpdates(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15)
	m := newMonitor(t, s)
	st, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unregister(st.ID) {
		t.Fatal("unregister failed")
	}
	if m.Unregister(st.ID) {
		t.Fatal("double unregister succeeded")
	}
	base := m.Stats()
	if _, err := s.Apply([]store.Op{store.UpdateObject(ids[0], pdf.MustUniform(2, 12))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(); got.ReEvals != base.ReEvals || got.Active != 0 {
		t.Fatalf("unregistered query still active: %+v", got)
	}
}

// TestMonitorClose: Close is idempotent, closes subscriptions, and further
// calls error cleanly.
func TestMonitorClose(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10)
	m, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel should close with the monitor")
	}
	if _, err := m.Register(cpnnSpec(5)); err != ErrClosed {
		t.Fatalf("Register after close: %v, want ErrClosed", err)
	}
	if _, err := m.Subscribe(nil, 4); err != ErrClosed {
		t.Fatalf("Subscribe after close: %v, want ErrClosed", err)
	}
	if err := m.Sync(time.Second); err != ErrClosed {
		t.Fatalf("Sync after close: %v, want ErrClosed", err)
	}
}

// TestEvaluateKinds smoke-tests the three canonical bodies.
func TestEvaluateKinds(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15, 8, 20)
	v := s.View()
	for _, spec := range []Spec{
		cpnnSpec(9),
		{Kind: KindPNN, Q: 9},
		{Kind: KindKNN, Q: 9, Constraint: verify.Constraint{P: 0.2, Delta: 0.05}, K: 2, Samples: 500, Seed: 4},
	} {
		body, radius, err := Evaluate(v, nil, nil, spec)
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		if len(body) == 0 || radius <= 0 {
			t.Fatalf("%v: body=%s radius=%g", spec.Kind, body, radius)
		}
		if !json.Valid(body) {
			t.Fatalf("%v: invalid JSON %s", spec.Kind, body)
		}
		// Deterministic: a second evaluation is byte-identical.
		again, _, err := Evaluate(v, nil, core.NewScratch(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(again) {
			t.Fatalf("%v: nondeterministic body", spec.Kind)
		}
	}
}

// TestEvaluatePNNOnScratch: a PNN evaluation runs on the scratch it is
// handed, and one scratch reused across kinds and query points renders the
// same bytes and radius as evaluating without one.
func TestEvaluatePNNOnScratch(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15, 8, 20, 30, 31, 12, 40, 9, 9.5)
	v := s.View()
	sc := core.NewScratch()
	if _, _, err := Evaluate(v, nil, sc, Spec{Kind: KindPNN, Q: 9}); err != nil {
		t.Fatal(err)
	}
	if sc.MemBytes() == 0 {
		t.Fatal("PNN evaluation left its scratch untouched")
	}
	for _, q := range []float64{9, 14, 0, 35, 100, 9.25} {
		for _, spec := range []Spec{{Kind: KindPNN, Q: q}, cpnnSpec(q)} {
			want, wantR, err := Evaluate(v, nil, nil, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, gotR, err := Evaluate(v, nil, sc, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || math.Float64bits(gotR) != math.Float64bits(wantR) {
				t.Fatalf("%v q=%g: scratch body %s radius %g, pooled %s radius %g", spec.Kind, q, got, gotR, want, wantR)
			}
		}
	}
}

// statelessSource stands a monitor on a store the way a shard cluster's
// source stands one on its members: no per-query state, so every evaluation
// re-derives from scratch on the evaluating worker's scratch, the last of
// which it keeps for inspection.
type statelessSource struct {
	storeSource
	mu      sync.Mutex
	scratch *core.Scratch
}

func (s *statelessSource) Incremental() bool { return false }

func (s *statelessSource) Evaluate(ev Eval, cut []uint64) ([]byte, float64, core.IncrementalStats, error) {
	if ev.Scratch != nil {
		s.mu.Lock()
		s.scratch = ev.Scratch
		s.mu.Unlock()
	}
	return s.storeSource.Evaluate(ev, cut)
}

// TestWorkerScratchCapped: a monitor worker's scratch obeys core's 1 MiB
// retention cap. The only worker re-evaluates a standing PNN whose subregion
// table exceeds the cap through a stateless source, and afterwards its
// scratch retains at most 1 MiB; the small standing query it evaluates next
// renders the same body as before.
func TestWorkerScratchCapped(t *testing.T) {
	const scratchCap = 1 << 20
	s := openStore(t)
	// Twenty overlapping 200-bin histograms around 1020: each folds into a
	// distance pdf with ≈200 break points, a table of 20 × ≈2,800
	// subregions ≈ 1.7 MB that an exact PNN integrates in milliseconds.
	// The sparse tail beyond 2000 holds ordinary queries.
	var ops []store.Op
	for i := 0; i < 20; i++ {
		edges, weights := make([]float64, 201), make([]float64, 200)
		for k := range edges {
			edges[k] = 1000 + 0.37*float64(i) + 0.2*float64(k)
		}
		for k := range weights {
			weights[k] = float64(1 + (7*k+i)%5)
		}
		h, err := pdf.NewHistogram(edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, store.InsertObject(h))
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, store.InsertObject(pdf.MustUniform(2000+10*float64(i), 2025+10*float64(i))))
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	big, small := Spec{Kind: KindPNN, Q: 1020}, Spec{Kind: KindPNN, Q: 2110}
	sc := core.NewScratch()
	if _, _, err := Evaluate(s.View(), nil, sc, big); err != nil {
		t.Fatal(err)
	}
	if b := sc.MemBytes(); b <= scratchCap {
		t.Fatalf("the large PNN retains only %d bytes; the fixture must exceed the %d cap", b, scratchCap)
	}

	src := &statelessSource{storeSource: storeSource{st: s}}
	m, err := New(Config{Source: src, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := m.Register(big); err != nil {
		t.Fatal(err)
	}
	before, err := m.Register(small)
	if err != nil {
		t.Fatal(err)
	}
	// Rewriting an object with its own pdf dirties exactly the standing
	// query whose influence interval holds it, without changing its answer.
	touch := func(i int) {
		t.Helper()
		if _, err := s.Apply([]store.Op{store.UpdateObject(res.IDs[i], ops[i].PDF)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(syncTimeout); err != nil {
			t.Fatal(err)
		}
	}
	touch(0)
	src.mu.Lock()
	worker := src.scratch
	src.mu.Unlock()
	if worker == nil {
		t.Fatal("the worker never evaluated the large PNN")
	}
	if b := worker.MemBytes(); b > scratchCap {
		t.Fatalf("after the large PNN the worker's scratch retains %d bytes, over the %d cap", b, scratchCap)
	}
	touch(20 + 10) // [2100, 2125], inside the small query's interval
	if got := m.Stats().ReEvals; got != 2 {
		t.Fatalf("%d worker evaluations, want 2", got)
	}
	after, _ := m.Get(before.ID)
	fresh, _, err := Evaluate(s.View(), nil, nil, small)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Answer, before.Answer) || !bytes.Equal(after.Answer, fresh) {
		t.Fatalf("the small PNN after the large one: %s, before %s, fresh %s", after.Answer, before.Answer, fresh)
	}
}
