package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChild measures one workload in a fresh process of this same binary, the
// way the driver does, and returns its full report. A child that served a
// wrong answer still reports; any other failure is an error.
func runChild(p params) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(p.outDir, "report-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())

	trace := "0"
	if p.trace {
		trace = "1"
	}
	args := []string{"--workload", p.workload, "--seed", strconv.FormatInt(p.seed, 10),
		"--seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "--trace", trace,
		"--out", p.outDir, "--json", f.Name()}
	if p.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(f.Name())
	if err != nil || len(b) == 0 {
		return nil, fmt.Errorf("%s: child wrote no report: %v", p.workload, runErr)
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", p.workload, err)
	}
	return rep, nil
}

// runAll runs every workload untraced and traced, prints every metric by
// name with its unit, and writes all reports with their contract results.
func runAll(w io.Writer, p params, jsonPath string) error {
	type run struct {
		Report *report `json:"report"`
		Result result  `json:"result"`
	}
	var runs []run
	failed := 0
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			p.workload, p.trace = def.name, trace
			rep, err := runChild(p)
			if err != nil {
				return err
			}
			if err := printReport(w, rep); err != nil {
				return err
			}
			runs = append(runs, run{rep, makeResult(rep)})
			failed += rep.Failed
		}
	}
	if jsonPath != "" {
		if err := writeJSONFile(jsonPath, map[string]any{"runs": runs}); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops: %w", failed, errIncorrect)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the driver's rule), for at least
// two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

// worseBy returns by what share of a the value b is worse, given the metric's
// better direction; negative when b is better.
func worseBy(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// rawOf names the un-normalised twin of the normalised end-to-end metrics.
var rawOf = map[string]string{"ops_per_s": "raw.ops_per_s", "p50_ms": "raw.p50_ms", "p95_ms": "raw.p95_ms"}

// repeatedCounts are printed pair by pair: two runs of one build on one seed
// did the same work if these agree.
var repeatedCounts = []string{"allocs_per_op", "store.checkpoints", "store.wal_bytes_per_commit", "shard.fanout"}

// runAA runs n alternating pairs of full untraced sets (A, B, A, B, …) of
// this one build, pair k on seed p.seed+k, and compares the sets' medians per
// workload and end-to-end metric with the metric's bound. It also prints each
// side's spread and the raw twin's, which is what normalisation has to beat.
func runAA(w io.Writer, p params, n int) error {
	// vals[set][workload][metric] holds one value per pair.
	var vals [2]map[string]map[string][]float64
	for s := range vals {
		vals[s] = map[string]map[string][]float64{}
	}
	p.trace = false
	for k := 0; k < n; k++ {
		for s := range vals {
			for _, def := range workloads {
				q := p
				q.workload, q.seed = def.name, p.seed+int64(k)
				rep, err := runChild(q)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %w", def.name, q.seed, errIncorrect)
				}
				if vals[s][def.name] == nil {
					vals[s][def.name] = map[string][]float64{}
				}
				for name, v := range rep.Values {
					vals[s][def.name][name] = append(vals[s][def.name][name], v)
				}
				fmt.Fprintf(os.Stderr, "pair %d set %c %s done\n", k+1, 'A'+s, def.name)
			}
		}
	}

	over := 0
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %6s %8s %8s\n",
		"workload", "metric", "median A", "median B", "gap", "bound", "spread", "raw spr.")
	for _, def := range workloads {
		a, b := vals[0][def.name], vals[1][def.name]
		for _, m := range endToEnd {
			ma, mb := median(a[m.Name]), median(b[m.Name])
			gap := worseBy(m, ma, mb)
			both := append(append([]float64(nil), a[m.Name]...), b[m.Name]...)
			raw := "-"
			if r, ok := rawOf[m.Name]; ok {
				raw = fmt.Sprintf("%.4f", spread(append(append([]float64(nil), a[r]...), b[r]...)))
			}
			mark := ""
			if max(gap, -gap) > m.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-13s %-14s %12.6g %12.6g %+8.4f %6.2f %8.4f %8s%s\n",
				def.name, m.Name, ma, mb, gap, m.Bound, spread(both), raw, mark)
		}
		// Counts of the program repeat exactly between the sets of a pair;
		// allocs/op repeats to a few parts in 10,000 (the runtime's own
		// allocations — pool refills after a GC — are not the program's).
		for _, name := range repeatedCounts {
			var worst float64
			for i := range a[name] {
				if d := math.Abs(a[name][i]-b[name][i]) / a[name][i]; d > worst {
					worst = d
				}
			}
			if len(a[name]) > 0 {
				fmt.Fprintf(w, "%-13s %-28s A=%.6g B=%.6g largest difference within a pair %.1e\n",
					def.name, name, a[name], b[name], worst)
			}
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric gaps exceed their bound", over)
	}
	return nil
}
