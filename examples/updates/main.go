// Updates walkthrough: the durable uncertain-object store end to end —
// open a data directory, insert moving sensor readings, query through an
// MVCC view, update and delete objects, checkpoint, then "crash" (close
// without ceremony) and recover everything.
//
// The LBS/sensor workloads the paper motivates are update-heavy: object
// pdfs change continuously. This example is that loop in miniature.
package main

import (
	"fmt"
	"log"
	"os"

	pnn "repro"
	"repro/internal/core"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "cpnn-updates-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open (and implicitly create) the durable store. Every committed batch
	// is written to the write-ahead log and fsync'd before Apply returns.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Three temperature sensors, each reporting an uncertainty interval.
	res, err := st.Apply([]store.Op{
		store.InsertObject(pnn.MustUniform(18, 22)), // sensor in the hallway
		store.InsertObject(pnn.MustUniform(19, 21)), // sensor by the window
		store.InsertObject(pnn.MustUniform(30, 40)), // sensor in the server room
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := res.IDs
	fmt.Printf("inserted sensors %v (version %d)\n", ids, res.Version)

	// Query: which sensor most likely reads closest to 20°C? A view is one
	// immutable MVCC generation — engine answers use dense IDs, view.IDs
	// maps them back to the stable IDs the store assigned.
	answer := func(label string) {
		v := st.View()
		eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
		if err != nil {
			log.Fatal(err)
		}
		resq, err := eng.CPNN(20, pnn.Constraint{P: 0.3, Delta: 0.01}, pnn.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (version %d):\n", label, v.Version)
		for _, a := range resq.Answers {
			fmt.Printf("  sensor %d: P in [%.2f, %.2f]\n", v.IDs[a.ID], a.Bounds.L, a.Bounds.U)
		}
	}
	answer("C-PNN at 20°C")

	// The server-room sensor cools down and the window sensor drifts; the
	// whole batch commits atomically and bumps the version once.
	if _, err := st.Apply([]store.Op{
		store.UpdateObject(ids[2], pnn.MustUniform(19.5, 20.5)),
		store.UpdateObject(ids[1], pnn.MustUniform(24, 26)),
	}); err != nil {
		log.Fatal(err)
	}
	answer("after updates")

	// Decommission the hallway sensor.
	if _, err := st.Apply([]store.Op{store.Delete(ids[0])}); err != nil {
		log.Fatal(err)
	}
	answer("after delete")

	// Checkpoint: state serialized through 4 KiB pages, WAL truncated.
	if err := st.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	stats := st.Stats()
	fmt.Printf("checkpointed: %d checkpoint(s), WAL %d bytes\n", stats.Checkpoints, stats.WALBytes)

	// "Crash" and recover: reopen the directory and find the same state at
	// the same (monotonic) version.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	v := re.View()
	fmt.Printf("recovered: %d sensors at version %d\n", v.Dataset.Len(), v.Version)
}
