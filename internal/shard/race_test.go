package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// TestShardConcurrency hammers one cluster with concurrent cross-shard
// writers (through the single router, as the design requires), standing
// monitors and ad-hoc scatter-gather queries — the workload the -race CI
// step runs. Afterwards it checks quiescent correctness: every standing
// answer is byte-identical to an independent recompute-all oracle (gather
// everything, evaluate single-engine), every subscriber reconstruction
// matches, and no push ever carried an unchanged body.
func TestShardConcurrency(t *testing.T) {
	const (
		k       = 4
		domain  = 1000.0
		writers = 3
		iters   = 40
		nSpecs  = 8
	)
	rng := rand.New(rand.NewSource(7))
	randIv := func(rng *rand.Rand) (float64, float64) {
		lo := rng.Float64() * domain
		return lo, lo + 1 + rng.Float64()*15
	}

	c, err := CreateCluster(t.TempDir(), k, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}

	// Seed objects, round-robin ownership per writer so deletes never race
	// validation.
	owned := make([][]uint64, writers)
	var seedOps []store.Op
	for i := 0; i < 12*writers; i++ {
		lo, hi := randIv(rng)
		seedOps = append(seedOps, store.InsertObject(pdf.MustUniform(lo, hi)))
	}
	res, err := r.Apply(context.Background(), seedOps)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range res.IDs {
		owned[i%writers] = append(owned[i%writers], id)
	}

	src, err := NewMonitorSource(r, c.Stores)
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(monitor.Config{Source: src, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	sub, err := m.Subscribe(nil, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	specs := make([]monitor.Spec, 0, nSpecs)
	for i := 0; i < nSpecs; i++ {
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
	clientView := map[uint64][]byte{}
	specOf := map[uint64]monitor.Spec{}
	var cvMu sync.Mutex
	for _, sp := range specs {
		st, err := m.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		clientView[st.ID] = st.Answer
		specOf[st.ID] = sp
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			ids := owned[w]
			for it := 0; it < iters; it++ {
				var batch []store.Op
				switch wrng.Intn(5) {
				case 0: // insert
					lo, hi := randIv(wrng)
					batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
				case 1: // delete one of our own
					if len(ids) > 1 {
						i := wrng.Intn(len(ids))
						batch = append(batch, store.Delete(ids[i]))
						ids = append(ids[:i], ids[i+1:]...)
						break
					}
					fallthrough
				default: // cross-shard update: new region anywhere in the domain
					if len(ids) == 0 {
						continue
					}
					id := ids[wrng.Intn(len(ids))]
					lo, hi := randIv(wrng)
					batch = append(batch, store.UpdateObject(id, pdf.MustUniform(lo, hi)))
				}
				res, err := r.Apply(context.Background(), batch)
				if err != nil {
					errCh <- fmt.Errorf("writer %d iter %d: %v", w, it, err)
					return
				}
				for i, op := range batch {
					if op.Code != store.OpDelete && op.ID == 0 {
						ids = append(ids, res.IDs[i])
					}
				}
			}
		}(w)
	}
	// Ad-hoc query load concurrent with the writes.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(200 + g)))
			for it := 0; it < 60; it++ {
				sp := specs[qrng.Intn(len(specs))]
				if _, _, _, err := r.Evaluate(context.Background(), sp); err != nil {
					errCh <- fmt.Errorf("query %d iter %d: %v", g, it, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := m.Sync(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Drain pushes; consecutive answers for one query must always differ.
	for drained := false; !drained; {
		select {
		case ev := <-sub.C():
			if ev.Type == monitor.EventLagged {
				t.Fatal("oversized subscription lagged")
			}
			cvMu.Lock()
			if bytes.Equal(clientView[ev.Update.ID], ev.Update.Answer) {
				t.Fatalf("spurious push for monitor %d: %s", ev.Update.ID, ev.Update.Answer)
			}
			clientView[ev.Update.ID] = ev.Update.Answer
			cvMu.Unlock()
		default:
			drained = true
		}
	}

	// Recompute-all oracle: merge every member's full contents and evaluate
	// single-engine, bypassing all router pruning.
	full := fullClusterView(t, c)
	for id, sp := range specOf {
		want, _, err := freshEval(full, sp)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("monitor %d vanished", id)
		}
		if !bytes.Equal(st.Answer, want) {
			t.Fatalf("monitor %d (%s q=%g): stored answer stale after quiescence:\n got %s\nwant %s",
				id, sp.Kind, sp.Q, st.Answer, want)
		}
		if !bytes.Equal(clientView[id], want) {
			t.Fatalf("monitor %d: subscriber view stale:\n got %s\nwant %s",
				id, clientView[id], want)
		}
	}
}

// fullClusterView merges every member's complete 1-D contents into one
// mini-view — the recompute-all oracle's input, built without the router.
func fullClusterView(t *testing.T, c *Cluster) *store.View {
	t.Helper()
	var items []Item
	var vsum uint64
	for _, st := range c.Stores {
		v := st.View()
		items = append(items, gatherView(v, 0, math.Inf(1))...)
		vsum += v.Version
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	pdfs := make([]pdf.PDF, len(items))
	ids := make([]uint64, len(items))
	for i, it := range items {
		pdfs[i] = it.PDF
		ids[i] = it.ID
	}
	return &store.View{Version: vsum, Dataset: uncertain.NewDataset(pdfs), IDs: ids}
}
