package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

// TestShardedEquivalence is the correctness gate of the sharded serving
// path: for 50 seeded op sequences, at every committed version, the answer
// of every standing-query spec evaluated through the scatter-gather router
// is byte-identical to a fresh single-engine evaluation over one store
// holding the same objects — across K ∈ {1,2,4,8} and, on odd seeds,
// deliberately skewed partitions (all cuts crammed into 10% of the domain).
// Stable-ID assignment must also agree op for op, so the sharded cluster is
// indistinguishable from a single store to any client.
//
// The same specs stand on a monitor over the cluster with a subscriber
// attached: after every commit each stored answer must equal the oracle's,
// and the pushes must be exactly the answer changes (no push carries an
// unchanged body, and replaying them reconstructs every current answer) —
// the contract TestMonitorOracle enforces for one store.
func TestShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("50 seeded runs x 4 shard counts")
	}
	// Per shard count K: member gathers, and routed queries × K.
	type fan struct{ gathers, pairs uint64 }
	ks := []int{1, 2, 4, 8}
	fans := map[int]*fan{}
	for _, k := range ks {
		fans[k] = &fan{}
	}
	for seed := int64(0); seed < 50; seed++ {
		for _, k := range ks {
			t.Run(fmt.Sprintf("seed=%d/k=%d", seed, k), func(t *testing.T) {
				st := runShardSeed(t, seed, k)
				fans[k].gathers += st.GatherContacts
				fans[k].pairs += st.Queries * uint64(st.Shards)
			})
		}
	}
	// The scatter phase must prune: on these localized workloads a query
	// gathers from fewer than half the members at K = 4 and at K = 8.
	for _, k := range ks {
		f := fans[k]
		if f.pairs == 0 {
			continue // filtered out by -run
		}
		frac := float64(f.gathers) / float64(f.pairs)
		t.Logf("K=%d: gathered from %d of %d (query x member) pairs, fan-out fraction %.3f", k, f.gathers, f.pairs, frac)
		if k >= 4 && frac >= 0.5 {
			t.Errorf("K=%d: gather fan-out fraction %.3f is not below 0.5 (%d member gathers over %d query x member pairs)",
				k, frac, f.gathers, f.pairs)
		}
	}
}

// oracleSpecs builds the standing-query mix of the monitor oracle: CPNN,
// PNN and constrained k-NN scattered over the domain.
func oracleSpecs(rng *rand.Rand, domain float64, seed int64) []monitor.Spec {
	specs := make([]monitor.Spec, 0, 12)
	for i := 0; i < 12; i++ {
		q := rng.Float64() * domain
		switch i % 3 {
		case 0:
			specs = append(specs, monitor.Spec{Kind: monitor.KindCPNN, Q: q,
				Constraint: verify.Constraint{P: 0.3, Delta: 0.01}})
		case 1:
			specs = append(specs, monitor.Spec{Kind: monitor.KindPNN, Q: q})
		case 2:
			specs = append(specs, monitor.Spec{Kind: monitor.KindKNN, Q: q,
				Constraint: verify.Constraint{P: 0.4, Delta: 0.05},
				K:          2})
		}
	}
	return specs
}

func runShardSeed(t *testing.T, seed int64, k int) Stats {
	rng := rand.New(rand.NewSource(seed))
	const domain = 10000.0
	randIv := func() (float64, float64) {
		lo := rng.Float64() * domain
		return lo, lo + 1 + rng.Float64()*20
	}

	// The single-store oracle.
	single, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	var ops []store.Op
	for i := 0; i < 60; i++ {
		lo, hi := randIv()
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, hi)))
	}
	res, err := single.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]uint64(nil), res.IDs...)

	// The sharded cluster, split from the oracle's view. Odd seeds use a
	// deliberately skewed layout: every cut inside the first 10% of the
	// domain, so most objects pile into the last shard.
	var c *Cluster
	if seed%2 == 1 {
		cuts := make([]float64, k-1)
		for i := range cuts {
			cuts[i] = domain * 0.1 * float64(i+1) / float64(k)
		}
		c, err = CreateClusterCuts(t.TempDir(), cuts, single.View(), store.Options{NoSync: true})
	} else {
		c, err = CreateCluster(t.TempDir(), k, single.View(), store.Options{NoSync: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}

	specs := oracleSpecs(rng, domain, seed)
	src, err := NewMonitorSource(r, c.Stores)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(monitor.Config{Source: src, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	sub, err := mon.Subscribe(nil, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	monID := make([]uint64, len(specs))
	clientView := map[uint64][]byte{} // the subscriber's reconstruction
	for si, sp := range specs {
		st, err := mon.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		monID[si], clientView[st.ID] = st.ID, st.Answer
	}

	sweep := func(step int) {
		if err := mon.Sync(10 * time.Second); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for drained := false; !drained; {
			select {
			case ev := <-sub.C():
				if ev.Type == monitor.EventLagged {
					t.Fatal("oversized subscription lagged")
				}
				if bytes.Equal(clientView[ev.Update.ID], ev.Update.Answer) {
					t.Fatalf("step %d: spurious push for monitor %d: %s", step, ev.Update.ID, ev.Update.Answer)
				}
				clientView[ev.Update.ID] = ev.Update.Answer
			default:
				drained = true
			}
		}
		view := single.View()
		for si, sp := range specs {
			want, _, err := monitor.Evaluate(view, nil, nil, sp)
			if err != nil {
				t.Fatal(err)
			}
			st, ok := mon.Get(monID[si])
			if !ok {
				t.Fatalf("monitor %d vanished", monID[si])
			}
			if !bytes.Equal(st.Answer, want) {
				t.Fatalf("step %d seed %d k=%d: standing spec %d (%s q=%g) stale:\n got %s\nwant %s",
					step, seed, k, si, sp.Kind, sp.Q, st.Answer, want)
			}
			if !bytes.Equal(clientView[st.ID], want) {
				t.Fatalf("step %d seed %d k=%d: subscriber view of spec %d stale (missing push):\n got %s\nwant %s",
					step, seed, k, si, clientView[st.ID], want)
			}
			got, _, g, err := r.Evaluate(context.Background(), sp, nil)
			if err != nil {
				t.Fatalf("step %d spec %d: router: %v", step, si, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d seed %d k=%d: spec %d (%s q=%g) diverged:\n got %s\nwant %s\n(fan-out %d/%d, bound %g)",
					step, seed, k, si, sp.Kind, sp.Q, got, want, g.Fanout, k, g.Bound)
			}
		}
	}
	sweep(-1)

	for step := 0; step < 10; step++ {
		var batch []store.Op
		if step == 5 && seed%5 == 0 {
			// Cover the truncate barrier: wholesale reload mid-sequence.
			batch = append(batch, store.Truncate())
			live = nil
			for i := 0; i < 10; i++ {
				lo, hi := randIv()
				batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
			}
		} else {
			nops := 1 + rng.Intn(4)
			for i := 0; i < nops; i++ {
				switch op := rng.Intn(10); {
				case op < 4 && len(live) > 0:
					id := live[rng.Intn(len(live))]
					lo, hi := randIv()
					batch = append(batch, store.UpdateObject(id, pdf.MustUniform(lo, hi)))
				case op < 7:
					lo, hi := randIv()
					batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
				case len(live) > 1:
					i := rng.Intn(len(live))
					batch = append(batch, store.Delete(live[i]))
					live = append(live[:i], live[i+1:]...)
				default:
					lo, hi := randIv()
					batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
				}
			}
		}
		sres, err := single.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := r.Apply(context.Background(), batch)
		if err != nil {
			t.Fatalf("step %d: router apply: %v", step, err)
		}
		// The router's ID assignment must be indistinguishable from the
		// single store's.
		if len(sres.IDs) != len(rres.IDs) {
			t.Fatalf("step %d: ID count %d vs %d", step, len(rres.IDs), len(sres.IDs))
		}
		for i := range sres.IDs {
			if sres.IDs[i] != rres.IDs[i] {
				t.Fatalf("step %d op %d: router assigned ID %d, single store %d",
					step, i, rres.IDs[i], sres.IDs[i])
			}
		}
		for i, op := range batch {
			if op.Code != store.OpDelete && op.Code != store.OpTruncate && op.ID == 0 {
				live = append(live, sres.IDs[i])
			}
		}
		sweep(step)
	}
	return r.Stats()
}
