// Command bench is the repository's one repeatable benchmark: five workloads,
// one per serving shape, each driven in-process by one closed-loop client
// through the layers' public functions, with timings normalised by a
// reference kernel and a traced run that splits the time by layer. See
// README.md in this directory for the metric, workload and layer tables.
//
//	go run ./bench --workload read_cold --seed 1 --seconds 12 --trace 0
//	go run ./bench -all -json out.json
//	go run ./bench -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// workloads lists the five serving shapes in the order -all runs them.
var workloads = []workloadDef{
	{
		name: "read_cold", ops: 4000, prepare: prepareRead(false),
		why: "every request misses the result cache, so filter, derive, subregion, verify and refine do the work",
	},
	{
		name: "read_hot", ops: 125000, prepare: prepareRead(true),
		why: "every request hits the result cache, so parsing, cache and response writing do the work and the engine none",
	},
	{
		name: "shard_read", ops: 500, prepare: prepareShard,
		why: "the same cold queries through a 4-shard router, where the members' bound phase dominates",
	},
	{
		name: "store_rw", ops: 4000, prepare: prepareStore,
		why: "reads and commits share a store 85x larger than its page cache: faults, WAL, overlay views and flatten run",
	},
	{
		name: "monitor_push", ops: 500, prepare: prepareMonitor,
		why: "each commit is joined against 200 standing queries and changed answers are re-verified and pushed",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricValue is one entry of the contract's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reported returns the metric list a run reports: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// makeResult selects the run's reported metrics; one the workload does not
// exercise reads 0.
func makeResult(rep *report) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range reported(rep.Trace) {
		res.Metrics[m.Name] = metricValue{Value: rep.Values[m.Name], Unit: m.Unit}
	}
	return res
}

// printReport prints every reported metric by name with its unit, then the
// contract's one-line JSON result.
func printReport(w io.Writer, rep *report) error {
	fmt.Fprintf(w, "# %s seed=%d trace=%t rounds=%d ops/round=%d timed=%.2fs attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Rounds, rep.OpsPerRound, rep.TimedS, rep.Attempted, rep.Failed)
	res := makeResult(rep)
	for _, m := range reported(rep.Trace) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload to run: read_cold, read_hot, shard_read, store_rw or monitor_push")
	flag.Int64Var(&p.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&p.seconds, "seconds", 12, "seconds of op-loop time to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&p.smoke, "smoke", false, "one short round per workload (the tier-1 test size)")
	flag.StringVar(&p.outDir, "out", "bench/out", "directory for trace files and temporary stores")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in a fresh process")
	aa := flag.Int("aa", 0, "run N alternating pairs of full sets of the same build and compare their medians")
	jsonPath := flag.String("json", "", "also write the full report to this file")
	flag.Parse()
	p.trace = trace != 0

	var err error
	switch {
	case *aa > 0:
		err = runAA(os.Stdout, p, *aa)
	case *all:
		err = runAll(os.Stdout, p, *jsonPath)
	default:
		err = runOne(os.Stdout, p, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but served a wrong answer or failed
// an op: the result line is printed, and the exit code is still non-zero.
var errIncorrect = fmt.Errorf("failed ops or answer check")

func runOne(w io.Writer, p params, jsonPath string) error {
	rep, err := runWorkload(p)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeJSONFile(jsonPath, rep); err != nil {
			return err
		}
	}
	if err := printReport(w, rep); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops: %w", rep.Workload, rep.Failed, rep.Attempted, errIncorrect)
	}
	return nil
}
