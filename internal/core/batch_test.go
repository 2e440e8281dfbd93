package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

func batchTestEngine(t testing.TB, n int, seed int64) (*Engine, []float64) {
	t.Helper()
	opt := uncertain.LongBeachOptions(seed)
	opt.N = n
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	return eng, uncertain.QueryWorkload(48, opt.Domain, seed+100)
}

// TestCPNNBatchMatchesSingles: a batch answer must be byte-for-byte the
// answer of evaluating each point with CPNN — the batch path shares scratch
// and recycles tables, none of which may leak into results.
func TestCPNNBatchMatchesSingles(t *testing.T) {
	eng, qs := batchTestEngine(t, 8000, 3)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, workers := range []int{1, 4} {
		br, err := eng.CPNNBatch(qs, c, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(qs) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(br.Results), len(qs))
		}
		if br.Stats.Queries != len(qs) {
			t.Fatalf("workers=%d: Stats.Queries = %d", workers, br.Stats.Queries)
		}
		for i, q := range qs {
			want, err := eng.CPNN(q, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := br.Results[i]
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Fatalf("workers=%d query %d (q=%g): batch answers %+v != single %+v",
					workers, i, q, got.Answers, want.Answers)
			}
			if !reflect.DeepEqual(got.Candidates, want.Candidates) {
				t.Fatalf("workers=%d query %d (q=%g): batch candidates differ from single",
					workers, i, q)
			}
		}
	}
}

// TestCPNNBatchStrategies: the scratch path must behave for every strategy,
// including Basic (which skips the subregion table entirely).
func TestCPNNBatchStrategies(t *testing.T) {
	eng, qs := batchTestEngine(t, 2000, 5)
	qs = qs[:8]
	c := verify.Constraint{P: 0.2, Delta: 0.01}
	for _, strat := range []Strategy{VR, Refine, Basic} {
		br, err := eng.CPNNBatch(qs, c, BatchOptions{Options: Options{Strategy: strat}, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i, q := range qs {
			want, err := eng.CPNN(q, c, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br.Results[i].Answers, want.Answers) {
				t.Fatalf("%v query %d: batch answers differ from single", strat, i)
			}
		}
	}
}

func TestCPNNBatch2DMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := make([]Object2D, 80)
	for i := range objs {
		objs[i] = Object2D{
			ID: i,
			Region: geom.Circle{
				Center: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 0.5 + rng.Float64()*4,
			},
		}
	}
	eng, err := NewEngine2D(objs)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]geom.Point, 12)
	for i := range qs {
		qs[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	c := verify.Constraint{P: 0.3, Delta: 0.05}
	for _, workers := range []int{1, 3} {
		br, err := eng.CPNNBatch(qs, c, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, err := eng.CPNN(q, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br.Results[i].Answers, want.Answers) {
				t.Fatalf("workers=%d query %d: 2-D batch answers differ from single", workers, i)
			}
			if !reflect.DeepEqual(br.Results[i].Candidates, want.Candidates) {
				t.Fatalf("workers=%d query %d: 2-D batch candidates differ from single", workers, i)
			}
		}
	}
}

func TestCPNNBatchRejectsNonFinite(t *testing.T) {
	eng, _ := batchTestEngine(t, 500, 11)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := eng.CPNNBatch([]float64{100, bad, 200}, c, BatchOptions{})
		if err == nil {
			t.Fatalf("batch accepted non-finite query %g", bad)
		}
		if !strings.Contains(err.Error(), "query 1") {
			t.Fatalf("error %q does not name the offending index", err)
		}
	}
	// The single-query entry points share the guard.
	if _, err := eng.CPNN(math.NaN(), c, Options{}); err == nil {
		t.Fatal("CPNN accepted NaN")
	}
	if _, _, err := eng.PNN(math.Inf(1), Options{}); err == nil {
		t.Fatal("PNN accepted +Inf")
	}
	if _, _, err := eng.CKNN(math.NaN(), c, KNNOptions{K: 2}); err == nil {
		t.Fatal("CKNN accepted NaN")
	}
}

func TestCPNNBatchEmpty(t *testing.T) {
	eng, _ := batchTestEngine(t, 500, 13)
	br, err := eng.CPNNBatch(nil, verify.Constraint{P: 0.3, Delta: 0.01}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 0 || br.Stats.Queries != 0 {
		t.Fatalf("empty batch returned %d results", len(br.Results))
	}
}

// TestCPNNBatchAggregates: the scalar per-query statistics must sum into the
// batch aggregate.
func TestCPNNBatchAggregates(t *testing.T) {
	eng, qs := batchTestEngine(t, 4000, 17)
	qs = qs[:16]
	br, err := eng.CPNNBatch(qs, verify.Constraint{P: 0.3, Delta: 0.01}, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantCands, wantSub int
	for _, r := range br.Results {
		wantCands += r.Stats.Candidates
		wantSub += r.Stats.Subregions
	}
	if br.Stats.Aggregate.Candidates != wantCands {
		t.Errorf("aggregate candidates %d != %d", br.Stats.Aggregate.Candidates, wantCands)
	}
	if br.Stats.Aggregate.Subregions != wantSub {
		t.Errorf("aggregate subregions %d != %d", br.Stats.Aggregate.Subregions, wantSub)
	}
	if br.Stats.Wall <= 0 {
		t.Error("batch wall time not recorded")
	}
}

// ---- benchmarks --------------------------------------------------------

var benchBatch struct {
	eng *Engine
	qs  []float64
}

func benchBatchSetup(b *testing.B) (*Engine, []float64) {
	b.Helper()
	if benchBatch.eng == nil {
		opt := uncertain.LongBeachOptions(1)
		ds, err := uncertain.GenerateUniform(opt)
		if err != nil {
			b.Fatal(err)
		}
		benchBatch.eng, err = NewEngine(ds)
		if err != nil {
			b.Fatal(err)
		}
		benchBatch.qs = uncertain.QueryWorkload(512, opt.Domain, 42)
	}
	return benchBatch.eng, benchBatch.qs
}

// BenchmarkCPNNBatch measures batch throughput across batch sizes on the
// Long-Beach-like workload. Compare size=64 against
// BenchmarkCPNNLoopOfSingles/size=64, which runs the same body on the same
// pooled scratch one query at a time, for the batch's fan-out gain tracked
// in EXPERIMENTS.md.
func BenchmarkCPNNBatch(b *testing.B) {
	eng, qs := benchBatchSetup(b)
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CPNNBatch(qs[:size], c, BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkCPNNLoopOfSingles is the baseline the batch path fans out: the
// same query points evaluated one CPNN call at a time.
func BenchmarkCPNNLoopOfSingles(b *testing.B) {
	eng, qs := benchBatchSetup(b)
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
	eng, qs := benchBatchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids, _ := eng.candidates(qs[i%len(qs)], 3); len(ids) < 3 {
			b.Fatalf("%d candidates at k=3", len(ids))
		}
	}
}

// BenchmarkCKNN measures a whole constrained k-NN — filter, derivation, the
// table cut at f_k and the exact integration — at the Long-Beach population,
// one query point per op, cycling through the workload.
func BenchmarkCKNN(b *testing.B) {
	eng, qs := benchBatchSetup(b)
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

// TestCPNNBatchSmallBatchNestedParallel: a batch smaller than the core count
// runs fewer workers than cores, each query deriving in-line on its own
// pooled scratch, and still answers exactly like singles. GOMAXPROCS is
// raised so the batch is below it even on a single-core host.
func TestCPNNBatchSmallBatchNestedParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	eng, qs := batchTestEngine(t, 6000, 23)
	qs = qs[:2] // 2 workers < 4 procs
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	br, err := eng.CPNNBatch(qs, c, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := eng.CPNN(q, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(br.Results[i].Candidates, want.Candidates) {
			t.Fatalf("query %d: small batch differs from single", i)
		}
	}
}

func TestEngine2DRejectsNonFinite(t *testing.T) {
	eng, err := NewEngine2D([]Object2D{{ID: 0, Region: geom.Circle{Center: geom.Point{X: 1, Y: 1}, Radius: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	bad := geom.Point{X: math.NaN(), Y: 0}
	if _, err := eng.CPNN(bad, c, Options{}); err == nil {
		t.Error("2-D CPNN accepted NaN")
	}
	if _, _, err := eng.PNN(bad, Options{}); err == nil {
		t.Error("2-D PNN accepted NaN")
	}
	if _, err := eng.CPNNBatch([]geom.Point{{X: 1, Y: 1}, bad}, c, BatchOptions{}); err == nil {
		t.Error("2-D batch accepted NaN")
	}
}
