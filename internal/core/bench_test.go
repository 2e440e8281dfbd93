package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/uncertain"
	"repro/internal/verify"
)

var benchLongBeach struct {
	eng *Engine
	qs  []float64
}

// benchSetup builds, once per test binary, the full Long-Beach-like engine
// and a 512-point query workload over it.
func benchSetup(b *testing.B) (*Engine, []float64) {
	b.Helper()
	if benchLongBeach.eng == nil {
		opt := uncertain.LongBeachOptions(1)
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			b.Fatal(err)
		}
		benchLongBeach.eng, err = NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		benchLongBeach.qs = uncertain.QueryWorkload(512, opt.Domain, 42)
	}
	return benchLongBeach.eng, benchLongBeach.qs
}

// BenchmarkCPNNLoopOfSingles measures a run of C-PNN queries evaluated one
// CPNN call at a time on the caller's goroutine, each on a pooled scratch —
// the per-goroutine work of any fan-out over many points.
func BenchmarkCPNNLoopOfSingles(b *testing.B) {
	eng, qs := benchSetup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, size := range []int{64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range qs[:size] {
					if _, err := eng.CPNN(q, c, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkCKNNFilter measures the k-NN filter alone — f_k and the candidate
// set, both off the R-tree — at the Long-Beach population, k = 3.
func BenchmarkCKNNFilter(b *testing.B) {
	eng, qs := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids, _ := eng.candidates(qs[i%len(qs)], 3, nil); len(ids) < 3 {
			b.Fatalf("%d candidates at k=3", len(ids))
		}
	}
}

// BenchmarkCKNN measures a whole constrained k-NN — filter, derivation, the
// table cut at f_k and the exact integration — at the Long-Beach population,
// one query point per op, cycling through the workload.
func BenchmarkCKNN(b *testing.B) {
	eng, qs := benchSetup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, k := range []int{1, 3, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.CKNN(qs[i%len(qs)], c, KNNOptions{K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPNN measures a whole PNN — filter, derivation, the table and the
// exact integration of every candidate — on a 20,000-object Long Beach slice
// at full density, at the points whose candidate sets are nearest 50, 180
// and 450. refine-ns/op is the integration phase alone (Stats.RefineTime).
func BenchmarkPNN(b *testing.B) {
	eng, qs := longBeachSlice(b, 20000, 50, 180, 450)
	for _, q := range qs {
		_, st, err := eng.PNN(q, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("C=%d", st.Candidates), func(b *testing.B) {
			b.ReportAllocs()
			var refine time.Duration
			for i := 0; i < b.N; i++ {
				_, st, err := eng.PNN(q, Options{})
				if err != nil {
					b.Fatal(err)
				}
				refine += st.RefineTime
			}
			b.ReportMetric(float64(refine.Nanoseconds())/float64(b.N), "refine-ns/op")
		})
	}
}
