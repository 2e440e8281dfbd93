package monitor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

// TestMonitorOracle is the correctness gate of the subsystem: for 50 seeded
// update sequences it checks, after every commit, that
//
//  1. every standing query's stored answer is byte-identical to a fresh
//     evaluation at the store's current version (influence-region pruning
//     never suppresses a changed answer), and
//  2. non-pushed queries are exactly those whose recomputed answer is
//     unchanged — a subscriber replaying initial states + pushed updates
//     reconstructs the fresh answers, and no push ever carries an unchanged
//     body.
//
// It also checks that pruning actually prunes: across the localized
// workloads, only a minority of (query, commit) pairs re-evaluate.
func TestMonitorOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("50 seeded runs")
	}
	var totalPairs, totalAffected uint64
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pairs, affected := runOracleSeed(t, seed)
			totalPairs += pairs
			totalAffected += affected
		})
	}
	if totalAffected*2 >= totalPairs {
		t.Fatalf("pruning ineffective: %d of %d (query, commit) pairs re-evaluated",
			totalAffected, totalPairs)
	}
	t.Logf("re-evaluated %d of %d pairs (%.1f%%)", totalAffected, totalPairs,
		100*float64(totalAffected)/float64(totalPairs))
}

func runOracleSeed(t *testing.T, seed int64) (pairs, affected uint64) {
	rng := rand.New(rand.NewSource(seed))
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const domain = 10000.0
	randIv := func() (float64, float64) {
		lo := rng.Float64() * domain
		return lo, lo + 1 + rng.Float64()*20
	}
	// Seed 60 objects spread over the domain.
	var ops []store.Op
	for i := 0; i < 60; i++ {
		lo, hi := randIv()
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, hi)))
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]uint64(nil), res.IDs...)

	m, err := New(Config{Store: s, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Standing queries of all three kinds scattered over the domain.
	specs := []Spec{}
	for i := 0; i < 12; i++ {
		q := rng.Float64() * domain
		switch i % 3 {
		case 0:
			specs = append(specs, Spec{Kind: KindCPNN, Q: q,
				Constraint: verify.Constraint{P: 0.3, Delta: 0.01}})
		case 1:
			specs = append(specs, Spec{Kind: KindPNN, Q: q})
		case 2:
			specs = append(specs, Spec{Kind: KindKNN, Q: q,
				Constraint: verify.Constraint{P: 0.4, Delta: 0.05},
				K:          2})
		}
	}
	// The subscriber's reconstruction of each query's answer.
	clientView := map[uint64][]byte{}
	specOf := map[uint64]Spec{}
	sub, err := m.Subscribe(nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, sp := range specs {
		st, err := m.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		clientView[st.ID] = st.Answer
		specOf[st.ID] = sp
	}

	// Random localized op batches; every commit is followed by a full oracle
	// sweep.
	for step := 0; step < 10; step++ {
		nops := 1 + rng.Intn(4)
		var batch []store.Op
		for i := 0; i < nops; i++ {
			switch op := rng.Intn(10); {
			case op < 4 && len(live) > 0: // localized update: nudge an object
				id := live[rng.Intn(len(live))]
				lo, hi := randIv()
				batch = append(batch, store.UpdateObject(id, pdf.MustUniform(lo, hi)))
			case op < 7: // insert
				lo, hi := randIv()
				batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
			case len(live) > 1: // delete (reshuffles dense IDs)
				i := rng.Intn(len(live))
				batch = append(batch, store.Delete(live[i]))
				live = append(live[:i], live[i+1:]...)
			default:
				lo, hi := randIv()
				batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
			}
		}
		res, err := s.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range batch {
			if op.Code != store.OpDelete && op.ID == 0 {
				live = append(live, res.IDs[i])
			}
		}
		if err := m.Sync(syncTimeout); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		// Drain pushed updates into the client view; a push must always
		// change the client's answer (no spurious pushes).
		for drained := false; !drained; {
			select {
			case ev := <-sub.C():
				if ev.Type == EventLagged {
					t.Fatal("oversized subscription lagged")
				}
				prev := clientView[ev.Update.ID]
				if bytes.Equal(prev, ev.Update.Answer) {
					t.Fatalf("step %d: spurious push for monitor %d: %s",
						step, ev.Update.ID, ev.Update.Answer)
				}
				clientView[ev.Update.ID] = ev.Update.Answer
			default:
				drained = true
			}
		}

		// Oracle sweep: recompute everything at the current version.
		view := s.View()
		for id, sp := range specOf {
			fresh, _, err := freshEval(view, sp)
			if err != nil {
				t.Fatal(err)
			}
			st, ok := m.Get(id)
			if !ok {
				t.Fatalf("monitor %d vanished", id)
			}
			if !bytes.Equal(st.Answer, fresh) {
				t.Fatalf("step %d seed %d: monitor %d (%s q=%g) stored answer stale:\n got %s\nwant %s\n(pruning suppressed a change)",
					step, seed, id, sp.Kind, sp.Q, st.Answer, fresh)
			}
			if !bytes.Equal(clientView[id], fresh) {
				t.Fatalf("step %d seed %d: subscriber view of monitor %d stale:\n got %s\nwant %s",
					step, seed, id, clientView[id], fresh)
			}
		}
	}
	st := m.Stats()
	return st.Affected + st.Pruned, st.Affected
}
