package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// BenchmarkStoreApply measures steady-state committed update throughput
// (ops/s) across batch sizes, with and without fsync, over a fixed 10k
// dataset — the paper's sensor/LBS workload where object pdfs move but the
// population is stable. (Per-commit cost includes the O(n) copy-on-write
// view materialization, so throughput depends on dataset size; this pins
// n.) The numbers feed the EXPERIMENTS.md update-throughput table.
func BenchmarkStoreApply(b *testing.B) {
	const n = 10000
	for _, sync := range []bool{true, false} {
		for _, batch := range []int{1, 16, 256} {
			name := fmt.Sprintf("fsync=%v/batch=%d", sync, batch)
			b.Run(name, func(b *testing.B) {
				s, err := Open(b.TempDir(), Options{NoSync: !sync, CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				rng := rand.New(rand.NewSource(1))
				seedOps := make([]Op, n)
				for i := range seedOps {
					lo := rng.Float64() * 10000
					seedOps[i] = InsertObject(pdf.MustUniform(lo, lo+5))
				}
				seeded, err := s.Apply(seedOps)
				if err != nil {
					b.Fatal(err)
				}
				ops := make([]Op, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range ops {
						lo := rng.Float64() * 10000
						ops[j] = UpdateObject(seeded.IDs[rng.Intn(n)], pdf.MustUniform(lo, lo+5))
					}
					if _, err := s.Apply(ops); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
	// The commit of the serving bench's monitor_push: N(0, 5) moves over
	// 20,000 Long Beach objects, where most moves stay inside their R-tree
	// leaf.
	b.Run("longbeach-20k/batch=64", func(b *testing.B) {
		f := newMovingFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ops := f.batch()
			b.StartTimer()
			if _, err := f.s.Apply(ops); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*movingBatch)/b.Elapsed().Seconds(), "ops/s")
	})
}

// BenchmarkIndexMaintenance compares the two strategies behind filter.Apply
// for one committed batch over a 20k-object dataset: clone the R-tree and
// replay the batch's edits, versus a bulk STR rebuild — the measurement
// behind the rebuildFraction amortization threshold.
func BenchmarkIndexMaintenance(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	pdfs := make([]pdf.PDF, n)
	for i := range pdfs {
		lo := rng.Float64() * 10000
		pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*10)
	}
	ds := uncertain.NewDataset(pdfs)
	ix, err := filter.NewIndex(ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("incremental/batch=%d", batch), func(b *testing.B) {
			// One update per batched op: delete the entry, reinsert it (the
			// edit pair an in-place pdf update produces).
			edits := make([]filter.Edit, 0, 2*batch)
			for j := 0; j < batch; j++ {
				slot := rng.Intn(n)
				region := ds.Object(slot).Region()
				edits = append(edits,
					filter.DeleteEdit(region, slot),
					filter.InsertEdit(region, slot))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Apply(ds, edits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("bulk-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := filter.NewIndex(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryUnderUpdateLoad measures C-PNN latency over live MVCC views
// while a background writer commits update batches as fast as the store
// accepts them — the query-latency-under-update-load row of EXPERIMENTS.md.
func BenchmarkQueryUnderUpdateLoad(b *testing.B) {
	for _, writers := range []int{0, 1} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			ops := make([]Op, 2000)
			for i := range ops {
				lo := rng.Float64() * 10000
				ops[i] = InsertObject(pdf.MustUniform(lo, lo+2+rng.Float64()*10))
			}
			if _, err := s.Apply(ops); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					wrng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						batch := make([]Op, 16)
						for j := range batch {
							v := s.View()
							id := v.IDs[wrng.Intn(len(v.IDs))]
							lo := wrng.Float64() * 10000
							batch[j] = UpdateObject(id, pdf.MustUniform(lo, lo+5))
						}
						if _, err := s.Apply(batch); err != nil {
							return
						}
					}
				}(int64(w + 7))
			}
			c := verify.Constraint{P: 0.3, Delta: 0.01}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := s.View()
				eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.CPNN(rng.Float64()*10000, c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkFlatten times one flatten of store_rw's store: 100k 8-edge
// histograms behind a 256 KiB page cache, fsync off, flattened after each
// 4,000 updates (500 commits of 8). Commits run outside the timer; each
// timed op (ns/op) is one flatten. full is an explicit Checkpoint, which
// re-packs the index, copies the unchanged payloads out of the previous base
// and writes a new file; appended is the WAL trigger's flatten, which appends
// the changed payloads, the live index and the slot table to the file (a
// full rewrite outside the timer resets the file whenever the next flatten
// would be full under the 2x rule). The numbers feed EXPERIMENTS.md
// "Capacity".
func BenchmarkFlatten(b *testing.B) {
	const n, commits, batch = 100_000, 500, 8
	for _, mode := range []string{"full", "appended"} {
		b.Run(mode, func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			hist := func() pdf.PDF {
				lo, w := rng.Float64()*n, 1+rng.Float64()*24
				weights := make([]float64, 7)
				for j := range weights {
					weights[j] = 1 + rng.Float64()
				}
				return pdf.MustHistogram(
					[]float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + 7*w/8, lo + w - w/16, lo + w - w/32, lo + w}, weights)
			}
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = InsertObject(hist())
			}
			seeded, err := s.Apply(ops)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			ops = ops[:batch]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if st := s.Stats(); mode == "appended" && int64(st.BasePages)*pager.PageSize >= 2*st.CompactedBytes {
					if err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				for c := 0; c < commits; c++ {
					for j := range ops {
						ops[j] = UpdateObject(seeded.IDs[rng.Intn(n)], hist())
					}
					if _, err := s.Apply(ops); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				flatten := s.Checkpoint
				if mode == "appended" {
					flatten = s.autoCheckpoint
				}
				if err := flatten(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); mode == "appended" && st.AppendedFlattens != uint64(b.N) {
				b.Fatalf("%d of %d flattens appended", st.AppendedFlattens, b.N)
			}
		})
	}
}

// autoCheckpoint flattens as the committer's WAL-size trigger does:
// appending a generation where the base allows one, else rewriting it.
func (s *Store) autoCheckpoint() error {
	_, err := s.submit(&request{checkpoint: true, auto: true, resp: make(chan result, 1)})
	return err
}
