// Continuous-query walkthrough: register standing C-PNN queries over a
// durable store, let the monitor watch the store's change feed, and receive
// pushed answer updates as objects move — the paper's LBS scenario ("which
// taxi is nearest the passenger, with probability ≥ 0.3?") kept current
// without any polling.
//
// The monitor prunes with influence regions: every answer comes with a
// critical distance (the filtering bound f_min), and a committed batch only
// re-evaluates the standing queries whose influence interval one of its
// changed rectangles intersects. Updates far from a query provably cannot
// change its answer and cost nothing.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	pnn "repro"
	"repro/internal/monitor"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "cpnn-monitorclient-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Five taxis reporting uncertain positions along a road (1-D).
	res, err := st.Apply([]store.Op{
		store.InsertObject(pnn.MustUniform(100, 120)),
		store.InsertObject(pnn.MustUniform(140, 150)),
		store.InsertObject(pnn.MustUniform(300, 330)),
		store.InsertObject(pnn.MustUniform(520, 540)),
		store.InsertObject(pnn.MustUniform(900, 930)),
	})
	if err != nil {
		log.Fatal(err)
	}
	taxis := res.IDs

	// The monitor rides the store's change feed.
	mon, err := monitor.New(monitor.Config{Store: st})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	// A passenger stands at x=135: which taxi is nearest with P ≥ 0.3?
	state, err := mon.Register(monitor.Spec{
		Kind:       monitor.KindCPNN,
		Q:          135,
		Constraint: pnn.Constraint{P: 0.3, Delta: 0.01},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing query %d at q=135 (version %d): %s\n",
		state.ID, state.Version, state.Answer)

	sub, err := mon.Subscribe(nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	// Taxi 5 is far away; moving it is pruned — no update arrives.
	if _, err := st.Apply([]store.Op{
		store.UpdateObject(taxis[4], pnn.MustUniform(940, 970)),
	}); err != nil {
		log.Fatal(err)
	}
	if err := mon.Sync(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	select {
	case ev := <-sub.C():
		fmt.Printf("unexpected update: %+v\n", ev)
	default:
		fmt.Println("far-away taxi moved: pruned, no re-evaluation, answer provably current")
	}

	// Taxi 3 pulls up right next to the passenger: the answer changes and an
	// update is pushed.
	if _, err := st.Apply([]store.Op{
		store.UpdateObject(taxis[2], pnn.MustUniform(130, 138)),
	}); err != nil {
		log.Fatal(err)
	}
	if err := mon.Sync(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	ev := <-sub.C()
	if ev.Type != monitor.EventUpdate {
		log.Fatalf("expected an update, got %+v", ev)
	}
	fmt.Printf("taxi %d arrived: pushed update (version %d): %s\n",
		taxis[2], ev.Update.Version, ev.Update.Answer)

	s := mon.Stats()
	fmt.Printf("monitor stats: %d re-evals, %d pruned, %d pushes\n",
		s.ReEvals, s.Pruned, s.Pushes)
}
