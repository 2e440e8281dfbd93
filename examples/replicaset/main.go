// Replicaset walkthrough: WAL-shipped read replicas end to end — a primary
// store streaming its log over loopback TCP, a follower store catching up
// and then tracking live commits, identical answers from both sides, lag
// observability, and the follower refusing local writes.
//
// The paper's LBS/sensor deployments are read-heavy: many clients asking
// "who is nearest?" against a stream of position updates. Replication lets
// query load fan out across follower processes while one primary owns the
// write path — and because the primary ships its WAL bytes verbatim, every
// follower's answers are byte-identical to the primary's.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	pnn "repro"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/store"
)

func main() {
	base, err := os.MkdirTemp("", "cpnn-replicaset-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// The primary: an ordinary durable store plus a replication listener
	// that streams its WAL to any follower that connects.
	primary, err := store.Open(filepath.Join(base, "primary"), store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	res, err := primary.Apply([]store.Op{
		store.InsertObject(pnn.MustUniform(18, 22)),
		store.InsertObject(pnn.MustUniform(19, 21)),
		store.InsertObject(pnn.MustUniform(30, 40)),
	})
	if err != nil {
		log.Fatal(err)
	}
	repl, err := replica.StartServer(replica.ServerConfig{
		Store: primary, Addr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer repl.Close()
	fmt.Printf("primary: %d objects at version %d, replicating on %s\n",
		len(res.IDs), res.Version, repl.Addr())

	// The follower: its own durable store (local writes refused) plus a
	// connection that replays the primary's stream into it.
	fstore, err := store.OpenFollower(filepath.Join(base, "replica"), store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fstore.Close()
	fol, err := replica.StartFollower(replica.FollowerConfig{
		Store: fstore, Primary: repl.Addr(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fol.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fol.WaitCaughtUp(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower: caught up at version %d (role %s)\n",
		fstore.View().Version, fstore.Role())

	// Both sides answer from their own MVCC views; the pdfs replicated
	// byte-for-byte, so the answers agree exactly.
	answer := func(label string, st *store.Store) {
		v := st.View()
		eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
		if err != nil {
			log.Fatal(err)
		}
		r, err := eng.CPNN(20, pnn.Constraint{P: 0.3, Delta: 0.01}, pnn.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (version %d):\n", label, v.Version)
		for _, a := range r.Answers {
			fmt.Printf("  sensor %d: P in [%.2f, %.2f]\n", v.IDs[a.ID], a.Bounds.L, a.Bounds.U)
		}
	}
	answer("primary ", primary)
	answer("follower", fstore)

	// A live commit on the primary flows down the stream; the follower's
	// change feed fires exactly as if the commit were local — monitors and
	// SSE subscribers on a replica ride this same feed.
	feed, err := fstore.Watch(0)
	if err != nil {
		log.Fatal(err)
	}
	defer feed.Close()
	up, err := primary.Apply([]store.Op{
		store.UpdateObject(res.IDs[2], pnn.MustUniform(19, 23)), // server room cools off
	})
	if err != nil {
		log.Fatal(err)
	}
	for delta := range feed.C() {
		if delta.View.Version >= up.Version {
			fmt.Printf("follower: replayed version %d (%d changed)\n",
				delta.View.Version, len(delta.Changes))
			break
		}
	}
	answer("follower", fstore)

	// Observability: the follower knows how far behind it is, three ways.
	lag := fol.Lag()
	fmt.Printf("lag: %d versions, %.0f seconds, %d bytes\n", lag.Versions, lag.Seconds, lag.Bytes)

	// The follower's store refuses local writes — in the HTTP server this
	// surfaces as a 307 redirect to the primary (or 403 without one).
	if _, err := fstore.Apply([]store.Op{store.Truncate()}); err != nil {
		fmt.Printf("follower write refused: %v (errors.Is(ErrFollower)=%v)\n",
			err, errors.Is(err, store.ErrFollower))
	}
}
