package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var vs []float64
	for i := 1; i <= 200; i++ {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// 200 samples leave 10 beyond p95 but only 2 beyond p99.
	if !percentileSupported(200, 95) || percentileSupported(200, 99) || !percentileSupported(1000, 99) {
		t.Error("percentileSupported does not apply the ≥10-samples-beyond rule")
	}
	// Every workload's round supports the p95 it reports.
	for _, w := range workloads {
		n := w.ops
		if w.name == "store_rw" {
			n = w.ops * storeReads / (storeReads + 1)
		}
		if !percentileSupported(n, 95) {
			t.Errorf("%s: %d primary ops per round cannot support p95", w.name, n)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

// TestFoldRounds checks the normalisation and median-of-rounds arithmetic: a
// round measured on a machine running at 1/slow speed (reference kernel slow
// times the nominal) folds to the same normalised values as a nominal round,
// and differs only in its raw ones.
func TestFoldRounds(t *testing.T) {
	if got := normTime(3*1.5, 3*refNominalMs); got != 1.5 {
		t.Errorf("normTime(4.5 at 3x the nominal kernel time) = %g, want 1.5", got)
	}
	mk := func(slow float64) round {
		wall := time.Duration(slow * float64(time.Second))
		return round{ops: 1000, wall: wall, normWallS: normTime(wall.Seconds(), slow*refNominalMs),
			normCPUS: normTime(slow*0.5, slow*refNominalMs), mallocs: 42000, heapLive: 8 << 20,
			refMs: slow * refNominalMs, p50: 0.5, p95: 0.95,
			rawP50: slow * 0.5, rawP95: slow * 0.95, rawP99: slow * 0.99}
	}
	got := foldRounds([]round{mk(1), mk(2), mk(4)}, nil)
	want := map[string]float64{"ops_per_s": 1000, "p50_ms": 0.5, "p95_ms": 0.95, "cpu_us_per_op": 500,
		"allocs_per_op": 42, "heap_live_mb": 8,
		// The raw values are the median round's, not the mean's.
		"raw.ops_per_s": 500, "raw.p50_ms": 1, "raw.p99_ms": 1.98, "ref_ms": 2 * refNominalMs}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*w {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}
}

// countingInstance records the op indices a round performs.
type countingInstance struct{ seen []int }

func (c *countingInstance) startRound(int, *tracer) error { c.seen = c.seen[:0]; return nil }
func (c *countingInstance) op(i int) (int, bool) {
	c.seen = append(c.seen, i)
	return i % opKinds, i != 3
}
func (c *countingInstance) endRound() map[string]float64 { return map[string]float64{"x": 1} }
func (c *countingInstance) inputs(io.Writer)             {}
func (c *countingInstance) check(int) (int, int, error)  { return 0, 0, nil }
func (c *countingInstance) close() error                 { return nil }

// TestRunRoundChunks checks that the chunks of a round cover every op exactly
// once, in order, whatever the remainder, and that failures and kinds count.
func TestRunRoundChunks(t *testing.T) {
	clk := &clock{ref: newRefKernel(), chunks: 4, slot: time.Millisecond}
	inst := &countingInstance{}
	r, err := clk.runRound(inst, 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range inst.seen {
		if got != i {
			t.Fatalf("ops ran as %v", inst.seen)
		}
	}
	if len(inst.seen) != 10 || r.ops != 10 || r.failed != 1 || len(r.commits) != 5 {
		t.Errorf("ran %d ops; round reports ops=%d failed=%d commits=%d", len(inst.seen), r.ops, r.failed, len(r.commits))
	}
	if r.wall <= 0 || r.normWallS <= 0 || r.refMs <= 0 || r.p50 <= 0 || r.rawP50 <= 0 || r.rawP99 != 0 {
		t.Errorf("round timings: %+v", r)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Op: 0, ID: 1, Parent: 0, Name: "server.handler", Start: 0, End: 100_000},
		{Op: 0, ID: 2, Parent: 1, Name: "core.cpnn", Start: 100_000, End: 170_000},
		{Op: 0, ID: 3, Parent: 2, Name: "filter.candidates", Start: 170_000, End: 180_000},
		{Op: 0, ID: 4, Parent: 2, Name: "dist.fold", Start: 180_000, End: 200_000},
		{Op: 1, ID: 5, Parent: 0, Name: "server.handler", Start: 200_000, End: 260_000},
	}
	self := selfTimes(tr.spans)
	for i, want := range []int64{30_000, 40_000, 10_000, 20_000, 60_000} {
		if self[i] != want {
			t.Errorf("self time of span %d = %d, want %d", i+1, self[i], want)
		}
	}
	tr.observe("core.candidates", 80)
	tr.observe("core.candidates", 100)
	sum := tr.summarize()
	for name, want := range map[string]float64{
		"server.handler_us":      80, // mean of 100 and 60
		"server.handler.self_us": 30, // only the span that has children
		"core.cpnn.self_us":      40,
		"dist.fold_us":           20,
		"core.candidates":        90,
	} {
		if sum[name] != want {
			t.Errorf("%s = %g, want %g", name, sum[name], want)
		}
	}
	if _, ok := sum["dist.fold.self_us"]; ok {
		t.Error("a leaf span reports a self time")
	}
}

// TestAnswerCheckTrips feeds the check a served answer that differs from the
// control in one bound by 1e-6, in one ID, and in length.
func TestAnswerCheckTrips(t *testing.T) {
	served := []answer{{ID: 7, L: 0.31, U: 0.42, Stat: "satisfy"}, {ID: 9, L: 0.5, U: 0.5, Stat: "satisfy"}}
	body, err := json.Marshal(map[string]any{"answers": served})
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
	pts := []float64{1, 2, 3}
	control := func(mutate func(a []answer) []answer) func(float64) ([]answer, error) {
		return func(float64) ([]answer, error) {
			return mutate(append([]answer(nil), served[1], served[0])), nil
		}
	}
	for name, c := range map[string]struct {
		mutate func(a []answer) []answer
		failed int
	}{
		"same, reordered": {func(a []answer) []answer { return a }, 0},
		"within 1e-9":     {func(a []answer) []answer { a[0].L += 5e-10; return a }, 0},
		"bound off":       {func(a []answer) []answer { a[1].U += 1e-6; return a }, 3},
		"other id":        {func(a []answer) []answer { a[0].ID = 8; return a }, 3},
		"one more":        {func(a []answer) []answer { return append(a, answer{ID: 1}) }, 3},
		"other status":    {func(a []answer) []answer { a[0].Stat = "fail"; return a }, 3},
	} {
		n, failed, err := checkServed(h, pts, control(c.mutate))
		if err != nil || n != len(pts) || failed != c.failed {
			t.Errorf("%s: checked %d, failed %d, err %v; want %d failed", name, n, failed, err, c.failed)
		}
	}
	// A non-200 is a failed op whatever its body says.
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(body)
	})
	if _, failed, _ := checkServed(bad, pts, control(func(a []answer) []answer { return a })); failed != len(pts) {
		t.Errorf("non-200 responses: %d failed, want %d", failed, len(pts))
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program has to agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind      string
		file, own []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEnd}, {"per_layer", bm.PerLayer, perLayer}} {
		if len(c.file) != len(c.own) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.file), len(c.own))
		}
		for i := range c.own {
			if c.file[i] != c.own[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.kind, i, c.file[i], c.own[i])
			}
		}
	}
}

// TestSmoke runs every workload once at 1/20 size, traced (a traced run
// measures untraced rounds first, so it fills both metric lists), and checks
// the answer check passed, every end-to-end metric is non-zero, the printed
// names are the lists', equal seeds give equal inputs, and every per-layer
// metric is produced by at least one workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots all five serving shapes")
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		p := params{workload: w.name, seed: 1, seconds: 1, trace: true, smoke: true, outDir: t.TempDir()}
		rep, err := runWorkload(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < rep.OpsPerRound {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, m := range endToEnd {
			if v := rep.Values[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %g", w.name, m.Name, v)
			}
		}
		for name, v := range rep.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %g", w.name, name, v)
			}
			produced[name] = produced[name] || v != 0
		}
		if _, err := os.Stat(p.outDir + "/trace-" + w.name + ".jsonl"); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}

		for _, trace := range []bool{false, true} {
			rep.Trace = trace
			var out bytes.Buffer
			if err := printReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := reported(trace)
			if len(res.Metrics) != len(want) || len(lines) != len(want)+2 {
				t.Errorf("%s trace=%t: printed %d metrics on %d lines, want %d", w.name, trace, len(res.Metrics), len(lines), len(want))
			}
			for i, m := range want {
				if mv, ok := res.Metrics[m.Name]; !ok || mv.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q", w.name, trace, m.Name, mv.Unit)
				}
				if !strings.HasPrefix(lines[i+1], m.Name+" ") {
					t.Errorf("%s trace=%t: line %d is %q, want metric %s", w.name, trace, i+1, lines[i+1], m.Name)
				}
			}
		}

		p.outDir = t.TempDir()
		again, err := runWorkload(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		p.seed, p.outDir = 2, t.TempDir()
		other, err := runWorkload(p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if again.InputDigest != rep.InputDigest || other.InputDigest == rep.InputDigest {
			t.Errorf("%s: input digests seed 1 %s, seed 1 again %s, seed 2 %s",
				w.name, rep.InputDigest, again.InputDigest, other.InputDigest)
		}
	}
	for _, m := range perLayer {
		// No standing answer is expected to take the early exit, and no
		// gather to retry, on these inputs; raw.p99 needs 1,000 ops a round.
		if !produced[m.Name] && m.Name != "monitor.early_exits" && m.Name != "shard.retries" && m.Name != "raw.p99_ms" {
			t.Errorf("no workload produced per-layer metric %s", m.Name)
		}
	}
}
