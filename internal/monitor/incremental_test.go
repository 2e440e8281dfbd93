package monitor

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

// specsAt returns one spec of each kind anchored near q, for equivalence
// sweeps that should cover every incremental code path.
func specsAt(q float64) []Spec {
	return []Spec{
		{Kind: KindCPNN, Q: q, Constraint: verify.Constraint{P: 0.3, Delta: 0.01}},
		{Kind: KindPNN, Q: q},
		{Kind: KindKNN, Q: q, Constraint: verify.Constraint{P: 0.4, Delta: 0.05},
			K: 2},
	}
}

// TestEvaluateIncrementalMatchesEvaluate drives one persistent EvalState per
// spec through a deterministic commit sequence and checks, at every version,
// that the incremental body is byte-identical to a fresh Evaluate — or, when
// the early exit fires, that the fresh body is byte-identical to the previous
// one (the skip claimed exactly that).
func TestEvaluateIncrementalMatchesEvaluate(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15, 30, 40, 200, 210, 500, 510)
	rng := rand.New(rand.NewSource(42))

	specs := specsAt(7)
	states := make([]*core.EvalState, len(specs))
	prev := make([][]byte, len(specs))
	v0 := s.View()
	eng0 := viewEngine(t, v0)
	for i, sp := range specs {
		states[i] = core.NewEvalState()
		var err error
		prev[i], _, _, err = EvaluateIncremental(v0, eng0, states[i], sp, nil, true)
		if err != nil {
			t.Fatal(err)
		}
	}

	var skips, reused int
	for step := 0; step < 40; step++ {
		var ops []store.Op
		changed := map[uint64]int{}
		switch step % 4 {
		case 0: // nudge an existing object
			id := ids[rng.Intn(len(ids))]
			lo := rng.Float64() * 60
			ops = append(ops, store.UpdateObject(id, pdf.MustUniform(lo, lo+5)))
			changed[id] = 0
		case 1: // move an object far away (possible departure)
			id := ids[rng.Intn(len(ids))]
			lo := 400 + rng.Float64()*200
			ops = append(ops, store.UpdateObject(id, pdf.MustUniform(lo, lo+8)))
			changed[id] = 0
		case 2: // insert near the query point (possible arrival)
			lo := rng.Float64() * 30
			ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+6)))
		default: // touch two objects at once (multi-change commit)
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			la, lb := rng.Float64()*100, rng.Float64()*100
			ops = append(ops,
				store.UpdateObject(a, pdf.MustUniform(la, la+4)),
				store.UpdateObject(b, pdf.MustUniform(lb, lb+4)))
			changed[a], changed[b] = 0, 0
		}
		res, err := s.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range res.IDs {
			changed[id] = 0
		}

		view := s.View()
		eng := viewEngine(t, view)
		for i, sp := range specs {
			fresh, _, err := freshEval(view, sp)
			if err != nil {
				t.Fatal(err)
			}
			body, _, inc, err := EvaluateIncremental(view, eng, states[i], sp, changed, false)
			if err != nil {
				t.Fatalf("step %d spec %d: %v", step, i, err)
			}
			if inc.Skipped {
				skips++
				if !bytes.Equal(fresh, prev[i]) {
					t.Fatalf("step %d spec %d: early exit but answer changed: %s != %s",
						step, i, fresh, prev[i])
				}
			} else {
				if !bytes.Equal(fresh, body) {
					t.Fatalf("step %d spec %d: incremental %s != fresh %s", step, i, body, fresh)
				}
				prev[i] = body
			}
			reused += inc.Reused
		}
	}
	if reused == 0 {
		t.Error("no fold was reused over 40 steps")
	}
	_ = skips // skips are sequence-dependent; correctness above is what matters
}

// TestMonitorEarlyExit: a commit that moves an object through the influence
// region and back out in one batch dirties the query but provably cannot
// change its answer — the worker must take the early exit, push nothing, and
// still advance the query's version.
func TestMonitorEarlyExit(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15, 500, 510)
	far := ids[2]
	m := newMonitor(t, s)

	st, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}

	// First triggering commit populates the per-query evaluation state (the
	// registration evaluation runs the plain path and caches nothing).
	if _, err := s.Apply([]store.Op{store.UpdateObject(ids[0], pdf.MustUniform(1, 11))}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if before.EarlyExits != 0 {
		t.Fatalf("unexpected early exits before the no-op commit: %d", before.EarlyExits)
	}

	// One batch: far object dips inside the influence region, then returns to
	// exactly where it was. The join dirties the query; the settled state is
	// unchanged, so the verifier must not run.
	if _, err := s.Apply([]store.Op{
		store.UpdateObject(far, pdf.MustUniform(5, 6)),
		store.UpdateObject(far, pdf.MustUniform(500, 510)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}

	after := m.Stats()
	if after.EarlyExits != before.EarlyExits+1 {
		t.Errorf("EarlyExits = %d, want %d", after.EarlyExits, before.EarlyExits+1)
	}
	if after.Pushes != before.Pushes {
		t.Errorf("early exit pushed an update: pushes %d -> %d", before.Pushes, after.Pushes)
	}
	got, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("query vanished")
	}
	if got.Version != s.View().Version {
		t.Errorf("version not advanced on early exit: %d != %d", got.Version, s.View().Version)
	}
	fresh, _, err := freshEval(s.View(), st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Answer, fresh) {
		t.Errorf("answer stale after early exit: %s != %s", got.Answer, fresh)
	}
}

// TestStateEvictionUnderCap: with a 1-byte state budget every evaluation's
// state is immediately evicted, the accounting returns to zero, and queries
// transparently fall back to full re-derivation — answers stay correct.
func TestStateEvictionUnderCap(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s, 0, 10, 5, 15, 20, 30)
	m, err := New(Config{Store: s, Workers: 2, MaxStateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	if _, err := m.Register(cpnnSpec(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(cpnnSpec(25)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lo := float64(i)
		if _, err := s.Apply([]store.Op{
			store.UpdateObject(ids[i%len(ids)], pdf.MustUniform(lo, lo+12)),
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(syncTimeout); err != nil {
			t.Fatal(err)
		}
	}

	st := m.Stats()
	if st.StateEvictions == 0 {
		t.Error("no state evictions under a 1-byte cap")
	}
	if st.StateBytes != 0 || st.StateQueries != 0 {
		t.Errorf("states retained past the cap: %d bytes over %d queries",
			st.StateBytes, st.StateQueries)
	}
	view := s.View()
	for _, q := range m.List() {
		fresh, _, err := freshEval(view, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q.Answer, fresh) {
			t.Errorf("monitor %d wrong under eviction churn: %s != %s", q.ID, q.Answer, fresh)
		}
	}
}

// TestTwoDFallbackCounter: disk (2-D) churn cannot affect 1-D standing
// queries; the feed loop skips it without dirtying anyone and counts the skip.
func TestTwoDFallbackCounter(t *testing.T) {
	s := openStore(t)
	seedObjects(t, s, 0, 10, 5, 15)
	m := newMonitor(t, s)
	st, err := m.Register(cpnnSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats()

	res, err := s.Apply([]store.Op{
		store.InsertDisk(geom.Circle{Center: geom.Point{X: 7, Y: 0}, Radius: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]store.Op{store.Delete(res.IDs[0])}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}

	after := m.Stats()
	if after.TwoDFallbacks != before.TwoDFallbacks+2 {
		t.Errorf("TwoDFallbacks = %d, want %d", after.TwoDFallbacks, before.TwoDFallbacks+2)
	}
	if after.ReEvals != before.ReEvals {
		t.Errorf("2-D churn triggered re-evaluations: %d -> %d", before.ReEvals, after.ReEvals)
	}
	got, _ := m.Get(st.ID)
	fresh, _, err := freshEval(s.View(), st.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Answer, fresh) {
		t.Errorf("answer wrong after 2-D churn: %s != %s", got.Answer, fresh)
	}
}

// TestMonitorEvictionChurnRace hammers a tiny state budget with concurrent
// writers and registration churn, so evictions race evaluations; run under
// -race this pins down the state-ownership discipline. Ends with an oracle
// sweep: every settled answer must match a fresh evaluation.
func TestMonitorEvictionChurnRace(t *testing.T) {
	s := openStore(t)
	ids := seedObjects(t, s,
		0, 10, 40, 50, 80, 90, 120, 130, 160, 170, 200, 210, 240, 250, 280, 290)
	m, err := New(Config{Store: s, Workers: 4, MaxStateBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	for i := 0; i < 6; i++ {
		if _, err := m.Register(cpnnSpec(float64(i * 50))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				id := ids[rng.Intn(len(ids))]
				lo := rng.Float64() * 300
				if _, err := s.Apply([]store.Op{
					store.UpdateObject(id, pdf.MustUniform(lo, lo+10)),
				}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(w) + 17)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 20; i++ {
			st, err := m.Register(cpnnSpec(rng.Float64() * 300))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			if i%2 == 0 {
				m.Unregister(st.ID)
			}
		}
	}()
	wg.Wait()
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}

	view := s.View()
	for _, q := range m.List() {
		fresh, _, err := freshEval(view, q.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q.Answer, fresh) {
			t.Fatalf("monitor %d settled stale: %s != %s", q.ID, q.Answer, fresh)
		}
	}
	if st := m.Stats(); st.StateEvictions == 0 {
		t.Log("note: no evictions fired this run (budget not exceeded)")
	}
}
