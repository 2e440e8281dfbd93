// Command cpnn-store administers a cpnn-serve data directory.
//
//	cpnn-store -dir DIR inspect   # print version/seq/object counts/WAL state
//	cpnn-store -dir DIR compact   # checkpoint and truncate the WAL
//	cpnn-store -dir DIR verify    # recover, check the index records, validate every pdf, run a probe query
//	cpnn-store -dir DIR -into CLUSTER -shards 4 split
//	                              # partition DIR into a 4-shard cluster
//
// When -dir points at a shard cluster directory (one holding shard.json),
// inspect and verify run against every member store in turn.
//
// All commands open the store through the normal recovery path — they take
// the directory's exclusive lock (a live server must be stopped first), and
// a torn WAL tail left by a crash is detected, reported, and truncated away
// exactly as a server boot would truncate it. Copy the directory first if
// the torn bytes themselves matter for a post-mortem. Beyond that recovery,
// inspect, verify and split make no changes to the source directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "cpnn-store:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpnn-store", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	noSync := fs.Bool("no-fsync", false, "skip fsyncs (compact/split only; faster on scratch copies)")
	into := fs.String("into", "", "split: destination cluster directory")
	shards := fs.Int("shards", 0, "split: member count K")
	var lo obs.LogOptions
	lo.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lo.Logger(os.Stderr, "cpnn-store")
	if err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "inspect"
	}

	if cmd == "split" {
		// SplitStore opens the source itself (briefly, read-only in effect),
		// so it must run before this process takes the directory lock.
		if *into == "" || *shards < 1 {
			return fmt.Errorf("split requires -into DIR and -shards K")
		}
		logger.Info("splitting store", "src", *dir, "into", *into, "shards", *shards)
		meta, err := shard.SplitStore(*dir, *into, *shards, store.Options{NoSync: *noSync, Logger: logger})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "split: %d shards under %s (cuts %v, next id %d)\n",
			meta.Shards, *into, meta.Cuts, meta.NextID)
		return nil
	}
	if *into != "" || *shards != 0 {
		return fmt.Errorf("-into/-shards apply to the split command")
	}

	// Refuse directories that hold neither store files nor nothing — a guard
	// against pointing the tool at an unrelated directory.
	if cmd != "compact" {
		if _, err := os.Stat(*dir); err != nil {
			return err
		}
	}

	// A cluster directory fans inspect/verify out over every member store.
	if meta, err := shard.ReadMeta(*dir); err == nil {
		if cmd == "compact" {
			return fmt.Errorf("compact one member at a time (e.g. -dir %s)", shard.Dir(*dir, 0))
		}
		for i := 0; i < meta.Shards; i++ {
			fmt.Fprintf(out, "--- shard %d/%d: %s\n", i, meta.Shards, shard.Dir(*dir, i))
			if err := runOne(shard.Dir(*dir, i), cmd, *noSync, logger, out); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	return runOne(*dir, cmd, *noSync, logger, out)
}

// runOne opens one store directory and applies cmd to it. Recovery events
// (torn-tail truncation, replay progress) surface through the structured
// logger; command output itself stays on out.
func runOne(dir, cmd string, noSync bool, logger *slog.Logger, out io.Writer) error {
	s, err := store.Open(dir, store.Options{NoSync: noSync, Logger: logger})
	if err != nil {
		return err
	}
	defer s.Close()

	switch cmd {
	case "inspect":
		return inspect(out, dir, s)
	case "compact":
		if err := s.Checkpoint(); err != nil {
			return err
		}
		fmt.Fprintf(out, "compacted: checkpoint written, WAL reset\n")
		return inspect(out, dir, s)
	case "verify":
		return verifyStore(out, s)
	default:
		return fmt.Errorf("unknown command %q (inspect, compact, verify, split)", cmd)
	}
}

func inspect(out io.Writer, dir string, s *store.Store) error {
	st := s.Stats()
	fmt.Fprintf(out, "version:      %d\n", st.Version)
	fmt.Fprintf(out, "seq:          %d\n", st.Seq)
	fmt.Fprintf(out, "objects (1d): %d\n", st.Objects1D)
	fmt.Fprintf(out, "dropped (2d): %d disks of older data (2-D runs in cpnn-query)\n", st.DroppedDisks)
	// Compaction debt at a glance: the WAL tail is what the next boot must
	// replay, and the checkpoint age is how long it has been accruing.
	fmt.Fprintf(out, "wal tail:     %d bytes\n", st.WALBytes)
	fmt.Fprintf(out, "wal records:  %d since checkpoint\n", st.WALRecords)
	if st.TornTailDropped {
		fmt.Fprintf(out, "wal:          torn tail detected and dropped during recovery\n")
	}
	if info, err := os.Stat(filepath.Join(dir, "checkpoint.db")); err == nil {
		fmt.Fprintf(out, "checkpoint:   %d bytes (%d pages)\n", info.Size(), info.Size()/4096)
		fmt.Fprintf(out, "checkpoint age: %.0f seconds\n", time.Since(info.ModTime()).Seconds())
	} else {
		fmt.Fprintf(out, "checkpoint:   none\n")
	}
	// On-disk vs in-memory footprint: how much of the dataset lives behind
	// the page cache, and how deep the MVCC overlay has grown since the last
	// flatten (each overlay slot holds a decoded payload in memory).
	fmt.Fprintf(out, "base pages:   %d (%d bytes on disk)\n", st.BasePages, st.BasePages*4096)
	// Appended flattens grow the file from its compacted size; the automatic
	// flatten rewrites it whole once it reaches twice that.
	fmt.Fprintf(out, "generation:   %d (file %d bytes, compacted %d bytes)\n",
		st.Generation, st.BasePages*4096, st.CompactedBytes)
	fmt.Fprintf(out, "cache budget: %d bytes (%d resident pages, %d hits, %d misses, %d evictions)\n",
		st.CacheBytes, st.PageCache.ResidentPages, st.PageCache.Hits, st.PageCache.Misses, st.PageCache.Evictions)
	fmt.Fprintf(out, "overlay:      %d slots resident, %d served from base\n", st.OverlaySlots, st.BaseSlots)
	// A replica.json marks the dir as a replication follower's: report where
	// the data came from and the stream state as of the last update.
	rs, ok, err := replica.ReadState(dir)
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintf(out, "role:         %s (replicated from %s)\n", rs.Role, rs.Source)
		if rs.PrimaryHTTP != "" {
			fmt.Fprintf(out, "primary http: %s\n", rs.PrimaryHTTP)
		}
		caught := "still syncing"
		if rs.CaughtUp {
			caught = "caught up"
		}
		fmt.Fprintf(out, "replication:  %s; applied seq %d (version %d)\n", caught, rs.AppliedSeq, rs.AppliedVersion)
		fmt.Fprintf(out, "replication:  %d reconnects, %d snapshot bootstraps; state written %.0f seconds ago\n",
			rs.Reconnects, rs.SnapshotBootstraps, time.Since(time.Unix(rs.UpdatedUnix, 0)).Seconds())
		if rs.AppliedSeq != st.Seq {
			fmt.Fprintf(out, "replication:  note: store is at seq %d (the state file trails live commits)\n", st.Seq)
		}
	}
	return nil
}

// verifyStore proves the recovered state is servable: the base checkpoint's
// live generation, index shape and payload records check out
// (store.CheckBase), every pdf validates and a
// C-PNN probe at the domain center runs end to end. It names the 2-D disks
// recovery dropped, if the directory's older data held any.
func verifyStore(out io.Writer, s *store.Store) error {
	if n := s.Stats().DroppedDisks; n > 0 {
		fmt.Fprintf(out, "note: dropped %d 2-D disks of older data (2-D runs in cpnn-query)\n", n)
	}
	if c, err := s.CheckBase(); err != nil {
		return fmt.Errorf("checkpoint index: %w", err)
	} else if c.Nodes > 0 {
		fmt.Fprintf(out, "index: generation %d, %d node records, depth %d, %d slots each reached once\n",
			c.Generation, c.Nodes, c.Depth, c.Slots)
	}
	v := s.View()
	if err := v.Dataset.Validate(); err != nil {
		return fmt.Errorf("dataset validation: %w", err)
	}
	if v.Dataset.Len() == 0 {
		fmt.Fprintf(out, "ok: empty store (version %d)\n", v.Version)
		return nil
	}
	eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		return err
	}
	dom := v.Dataset.Domain()
	q := dom.Center()
	res, err := eng.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{})
	if err != nil {
		return fmt.Errorf("probe query at %g: %w", q, err)
	}
	fmt.Fprintf(out, "ok: %d objects, version %d, probe q=%g -> %d candidates, %d answers\n",
		v.Dataset.Len(), v.Version, q, res.Stats.Candidates, len(res.Answers))
	return nil
}
