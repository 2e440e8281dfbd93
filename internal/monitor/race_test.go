package monitor

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

// TestMonitorRace exercises the full subsystem under -race: concurrent
// subscribers coming and going, standing queries registering and
// unregistering, and writers churning objects — all at once. A recording
// store subscription keeps every published view, so each pushed update can
// be checked against a fresh evaluation at exactly its version.
func TestMonitorRace(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Record every view by version before the monitor sees it, so pushed
	// updates can be replayed against their exact snapshot.
	rec, err := s.Watch(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	var viewMu sync.Mutex
	views := map[uint64]*store.View{}
	keepView := func(v *store.View) {
		viewMu.Lock()
		views[v.Version] = v
		viewMu.Unlock()
	}
	keepView(s.View())
	recDone := make(chan struct{})
	go func() {
		defer close(recDone)
		for d := range rec.C() {
			if d.Gap {
				t.Error("recording subscription lagged; raise its buffer")
				return
			}
			keepView(d.View)
		}
	}()

	var ops []store.Op
	for i := 0; i < 40; i++ {
		lo := float64(i * 50)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+20)))
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.IDs

	m, err := New(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	specs := make([]Spec, 8)
	for i := range specs {
		q := float64(i * 250)
		switch i % 3 {
		case 0:
			specs[i] = Spec{Kind: KindCPNN, Q: q, Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}
		case 1:
			specs[i] = Spec{Kind: KindPNN, Q: q}
		default:
			specs[i] = Spec{Kind: KindKNN, Q: q,
				Constraint: verify.Constraint{P: 0.4, Delta: 0.05}, K: 2}
		}
	}
	specByID := sync.Map{}
	for _, sp := range specs {
		st, err := m.Register(sp)
		if err != nil {
			t.Fatal(err)
		}
		specByID.Store(st.ID, sp)
	}

	var wgSubs, wg sync.WaitGroup

	// Subscribers: drain events, verifying every update against a fresh
	// evaluation at the update's version. They run until their subscription
	// is closed after the writers settle.
	var subs []*Subscription
	for w := 0; w < 3; w++ {
		sub, err := m.Subscribe(nil, 4096)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		wgSubs.Add(1)
		go func(sub *Subscription) {
			defer wgSubs.Done()
			for ev := range sub.C() {
				if ev.Type != EventUpdate {
					continue
				}
				spAny, ok := specByID.Load(ev.Update.ID)
				if !ok {
					continue
				}
				// The recorder goroutine may still be behind the monitor's
				// push; wait briefly for the version's view to land.
				var v *store.View
				for i := 0; i < 400 && v == nil; i++ {
					viewMu.Lock()
					v = views[ev.Update.Version]
					viewMu.Unlock()
					if v == nil {
						time.Sleep(5 * time.Millisecond)
					}
				}
				if v == nil {
					t.Errorf("no recorded view for version %d", ev.Update.Version)
					continue
				}
				fresh, _, err := freshEval(v, spAny.(Spec))
				if err != nil {
					t.Errorf("fresh evaluation: %v", err)
					continue
				}
				if !bytes.Equal(fresh, ev.Update.Answer) {
					t.Errorf("monitor %d at version %d: pushed %s, fresh %s",
						ev.Update.ID, ev.Update.Version, ev.Update.Answer, fresh)
				}
			}
		}(sub)
	}

	// Churner goroutines: move objects around (writes serialize in the
	// store's committer; concurrency exercises group commit + feed fan-out).
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				lo := rng.Float64() * 2000
				if _, err := s.Apply([]store.Op{
					store.UpdateObject(id, pdf.MustUniform(lo, lo+5+rng.Float64()*20)),
				}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(w) + 100)
	}

	// Register/unregister churn concurrent with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 30; i++ {
			st, err := m.Register(Spec{Kind: KindPNN, Q: rng.Float64() * 2000})
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			specByID.Store(st.ID, st.Spec)
			if i%2 == 0 {
				specByID.Delete(st.ID)
				m.Unregister(st.ID)
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := m.Sync(syncTimeout); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		sub.Close()
	}
	wgSubs.Wait()

	// Final oracle sweep at the settled version.
	view := s.View()
	for _, st := range m.List() {
		fresh, _, err := freshEval(view, st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Answer, fresh) {
			t.Fatalf("monitor %d settled stale: %s != %s", st.ID, st.Answer, fresh)
		}
	}
	rec.Close()
	<-recDone
}
