package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

// commitBatchFixture is the continuous-monitoring workload: objects
// uniform regions 1–25 units long over a 10,000-unit domain, and queries
// standing C-PNN queries (P = 0.3, Δ = 0.01) at uniform points. It returns
// the random stream it drew them from, for the updates.
func commitBatchFixture(tb testing.TB, objects, queries int) (*store.Store, *Monitor, []uint64, *rand.Rand) {
	tb.Helper()
	s, err := store.Open(tb.TempDir(), store.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(1))
	ops := make([]store.Op, objects)
	for i := range ops {
		ops[i] = store.InsertObject(batchRegion(rng))
	}
	res, err := s.Apply(ops)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(Config{Store: s})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Close)
	for i := 0; i < queries; i++ {
		if _, err := m.Register(Spec{Kind: KindCPNN, Q: rng.Float64() * batchDomain,
			Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}); err != nil {
			tb.Fatal(err)
		}
	}
	return s, m, res.IDs, rng
}

const batchDomain = 10000.0

func batchRegion(rng *rand.Rand) pdf.PDF {
	lo := rng.Float64() * batchDomain
	return pdf.MustUniform(lo, lo+1+rng.Float64()*24)
}

// commitBatch applies one commit of len(batch) updates, each moving a random
// object to a fresh region, and waits until the monitor has re-evaluated
// and pushed every standing answer it affected.
func commitBatch(tb testing.TB, s *store.Store, m *Monitor, ids []uint64, rng *rand.Rand, batch []store.Op) {
	for j := range batch {
		batch[j] = store.UpdateObject(ids[rng.Intn(len(ids))], batchRegion(rng))
	}
	if _, err := s.Apply(batch); err != nil {
		tb.Fatal(err)
	}
	if err := m.Sync(30 * time.Second); err != nil {
		tb.Fatal(err)
	}
}

// TestCommitBatchAmortizes holds the batch axis of the monitoring workload
// free of a cliff: a 64-update commit dirties more standing queries than a
// 16-update one, but costs no more allocations an update, so nothing in a
// commit grows faster than its batch. And a triggered re-evaluation
// re-derives only the candidates the commit changed: most candidate folds
// come from the query's state. Re-deriving every candidate of every dirtied
// query was the original batch-64 cliff.
func TestCommitBatchAmortizes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	s, m, ids, rng := commitBatchFixture(t, 2000, 50)
	const commits = 30
	perOp := map[int]float64{}
	for _, size := range []int{16, 64} {
		batch := make([]store.Op, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for c := 0; c < commits; c++ {
			commitBatch(t, s, m, ids, rng, batch)
		}
		runtime.ReadMemStats(&after)
		perOp[size] = float64(after.Mallocs-before.Mallocs) / float64(commits*size)
		t.Logf("batch %d: %.1f allocations an update", size, perOp[size])
	}
	if perOp[64] > perOp[16] {
		t.Errorf("batch-64 cliff: %.1f allocations an update at batch 64 > %.1f at batch 16", perOp[64], perOp[16])
	}
	st := m.Stats()
	t.Logf("candidate folds: %d reused, %d derived", st.IncrementalReused, st.IncrementalDerived)
	if st.IncrementalReused <= st.IncrementalDerived {
		t.Errorf("re-evaluations re-derive most candidates: %d folds reused, %d derived",
			st.IncrementalReused, st.IncrementalDerived)
	}
}

// BenchmarkMonitorCommitBatch measures one multi-op commit through
// quiescence — the batch axis of the continuous-monitoring workload, where
// each commit dirties many standing queries at once and the incremental
// evaluation path earns its keep.
func BenchmarkMonitorCommitBatch(b *testing.B) {
	for _, size := range []int{16, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			s, m, ids, rng := commitBatchFixture(b, 10000, 200)
			batch := make([]store.Op, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitBatch(b, s, m, ids, rng, batch)
			}
		})
	}
}

// BenchmarkMonitorCommit measures the end-to-end cost of one localized
// update commit with standing queries registered: WAL append, view publish,
// spatial join, and the (few) triggered re-evaluations, through quiescence.
// The standing-query count is the axis: with influence pruning the cost
// should stay nearly flat as queries grow, where naive re-evaluate-all is
// linear.
func BenchmarkMonitorCommit(b *testing.B) {
	for _, nq := range []int{16, 256} {
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			dir := b.TempDir()
			s, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			const domain = 10000.0
			var ops []store.Op
			for i := 0; i < 2000; i++ {
				lo := rng.Float64() * domain
				ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+1+rng.Float64()*12)))
			}
			res, err := s.Apply(ops)
			if err != nil {
				b.Fatal(err)
			}
			m, err := New(Config{Store: s})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			for i := 0; i < nq; i++ {
				if _, err := m.Register(Spec{Kind: KindCPNN, Q: rng.Float64() * domain,
					Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}); err != nil {
					b.Fatal(err)
				}
			}
			ids := res.IDs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[rng.Intn(len(ids))]
				lo := rng.Float64() * domain
				if _, err := s.Apply([]store.Op{
					store.UpdateObject(id, pdf.MustUniform(lo, lo+1+rng.Float64()*12)),
				}); err != nil {
					b.Fatal(err)
				}
				if err := m.Sync(30 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := m.Stats()
			if st.Affected+st.Pruned > 0 {
				b.ReportMetric(float64(st.Affected)/float64(st.Affected+st.Pruned), "reeval-fraction")
			}
		})
	}
}
