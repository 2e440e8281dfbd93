package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// params selects one measured run.
type params struct {
	workload string
	seed     int64
	seconds  float64 // timed seconds (sum of the rounds' op loops)
	trace    bool
	smoke    bool   // 1 round of 1/20 the ops, 1 boot: the tier-1 test size
	outDir   string // trace files and temp stores live here
}

// workloadDef is one serving shape. prepare generates the seed's inputs into
// dir (untimed, once); the booter it returns runs the shape's boot path.
type workloadDef struct {
	name string
	why  string
	// ops is the fixed op count of a round: fixed ops, not fixed time, so
	// per-op counts repeat from run to run.
	ops     int
	prepare func(p params, ops int, dir string) (booter, error)
}

// booter runs a shape's boot path — what cpnn-serve does between exec and the
// first answered request. boot is timed for setup_s and repeated, so it must
// leave dir as it found it once the instance is closed.
type booter interface {
	boot() (instance, error)
}

// Op kinds: every workload has a primary op; store_rw also commits.
const (
	opPrimary = iota
	opCommit
	opKinds
)

// instance is one booted serving stack plus its closed-loop client.
type instance interface {
	// startRound builds the round's requests and snapshots layer counters,
	// outside the timed region. tr is nil on untraced rounds.
	startRound(round int, tr *tracer) error
	// op performs the round's i-th operation and reports its kind and
	// whether it succeeded.
	op(i int) (kind int, ok bool)
	// endRound returns the round's per-layer counts.
	endRound() map[string]float64
	// inputs writes the current round's op inputs, for the input digest.
	inputs(w io.Writer)
	// check compares sampled served answers with a control, outside the
	// timed region, and returns how many it compared and how many differed.
	check(samples int) (attempted, failed int, err error)
	close() error
}

// round is what one timed round measured. Timings carry both forms: raw, as
// the clock read them, and normalised chunk by chunk to the nominal machine.
type round struct {
	ops, failed int
	wall        time.Duration // raw op-loop time
	normWallS   float64       // op-loop seconds on the nominal machine
	normCPUS    float64       // user+sys CPU seconds on the nominal machine
	mallocs     uint64
	heapLive    uint64
	refMs       float64 // mean reference-kernel time over the round
	// Primary-op latency percentiles in ms; rawP99 is 0 when the round has
	// too few ops to support it.
	p50, p95               float64
	rawP50, rawP95, rawP99 float64
	commits                []float64 // normalised commit latencies in ms, sorted (store_rw)
	layers                 map[string]float64
	spans                  map[string]float64
}

// report is the full outcome of one run; result is the contract's last line.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	Rounds      int     `json:"rounds"`
	OpsPerRound int     `json:"ops_per_round"`
	TimedS      float64 `json:"timed_s"`
	// InputDigest hashes the warm-up round's op inputs: equal seeds must give
	// equal digests, or two runs did not measure the same work.
	InputDigest string             `json:"input_digest"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Values      map[string]float64 `json:"values"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clock drives the rounds: the reference kernel, the chunking of a round and
// the latency buffers, reused across rounds so the op loop allocates nothing.
type clock struct {
	ref *refKernel
	// A round's ops run in chunks with a reference slot before and after
	// each, and every timing of a chunk is scaled by refNominalMs over the
	// mean of its two slots. Machine speed moves within a second here;
	// one slot per ~0.2 s of work halved the spread between runs that one
	// slot per round left.
	chunks int
	slot   time.Duration
	raw    []float64          // primary-op latencies, ms
	norm   [opKinds][]float64 // normalised latencies, ms
}

// runRound times one round of ops on inst.
func (c *clock) runRound(inst instance, idx, ops int, tr *tracer) (round, error) {
	if tr != nil {
		tr.reset()
	}
	if err := inst.startRound(idx, tr); err != nil {
		return round{}, err
	}
	c.raw = c.raw[:0]
	for k := range c.norm {
		c.norm[k] = c.norm[k][:0]
	}
	runtime.GC()
	r := round{ops: ops}
	var m0, m1 runtime.MemStats
	var refs []float64
	refBefore := c.ref.measure(c.slot)
	for ch := 0; ch < c.chunks; ch++ {
		from := [opKinds]int{len(c.norm[opPrimary]), len(c.norm[opCommit])}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		for i := ch * ops / c.chunks; i < (ch+1)*ops/c.chunks; i++ {
			t0 := time.Now()
			kind, ok := inst.op(i)
			c.norm[kind] = append(c.norm[kind], float64(time.Since(t0))/1e6)
			if !ok {
				r.failed++
			}
		}
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		refAfter := c.ref.measure(c.slot)

		refMs := (refBefore + refAfter) / 2
		refs, refBefore = append(refs, refMs), refAfter
		r.wall += wall
		r.normWallS += normTime(wall.Seconds(), refMs)
		r.normCPUS += normTime(cpu.Seconds(), refMs)
		r.mallocs += m1.Mallocs - m0.Mallocs
		c.raw = append(c.raw, c.norm[opPrimary][from[opPrimary]:]...)
		for k := range c.norm {
			for i := from[k]; i < len(c.norm[k]); i++ {
				c.norm[k][i] = normTime(c.norm[k][i], refMs)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapLive = m1.HeapAlloc
	r.refMs = mean(refs)

	// Only the percentiles and the (few) commit latencies outlive the round:
	// keeping every latency would grow the live heap by the round count.
	sort.Float64s(c.raw)
	for k := range c.norm {
		sort.Float64s(c.norm[k])
	}
	r.p50, r.p95 = percentile(c.norm[opPrimary], 50), percentile(c.norm[opPrimary], 95)
	r.rawP50, r.rawP95 = percentile(c.raw, 50), percentile(c.raw, 95)
	if percentileSupported(len(c.raw), 99) {
		r.rawP99 = percentile(c.raw, 99)
	}
	r.commits = append([]float64(nil), c.norm[opCommit]...)
	r.layers = inst.endRound()
	if tr != nil {
		r.spans = tr.summarize()
	}
	return r, nil
}

// runWorkload performs one full run: generate, boot (repeatedly, for
// setup_s), warm up, measure rounds until p.seconds of op-loop time have
// passed, check answers, and fold the rounds into metric values.
func runWorkload(p params) (*report, error) {
	def, ok := workloadByName(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ops, boots, minRounds, checks := def.ops, 21, 3, 256
	clk := &clock{ref: newRefKernel(), chunks: 4, slot: refSlot}
	if p.trace {
		boots = 1
	}
	if p.smoke {
		ops, boots, minRounds, checks = max(def.ops/20, 16), 1, 1, 32
		clk.chunks, clk.slot = 1, refSlot/8
	}

	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.outDir, "tmp-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	bt, err := def.prepare(p, ops, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", def.name, err)
	}

	// A boot takes 20–50 ms; each is normalised by the reference slots right
	// before and after it, and setup_s is the median over the boots.
	var inst instance
	var bootS []float64
	refBefore := clk.ref.measure(clk.slot)
	for i := 0; i < boots; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close after boot %d: %w", def.name, i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = bt.boot(); err != nil {
			return nil, fmt.Errorf("%s: boot: %w", def.name, err)
		}
		s := time.Since(t0).Seconds()
		refAfter := clk.ref.measure(clk.slot)
		bootS = append(bootS, normTime(s, (refBefore+refAfter)/2))
		refBefore = refAfter
	}
	defer inst.close()

	if _, err := clk.runRound(inst, 0, ops, nil); err != nil { // warm-up
		return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
	}
	digest := fnv.New64a()
	inst.inputs(digest)

	// measure runs rounds, numbered on from the last, until budget seconds
	// of op-loop time are spent.
	next := 1
	measure := func(budget float64, tr *tracer) ([]round, error) {
		var rs []round
		var spent float64
		for len(rs) < minRounds || (spent < budget && !p.smoke) {
			r, err := clk.runRound(inst, next, ops, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", def.name, next, err)
			}
			next++
			spent += r.wall.Seconds()
			rs = append(rs, r)
		}
		return rs, nil
	}

	budget := p.seconds
	if p.trace {
		budget /= 2
	}
	plain, err := measure(budget, nil)
	if err != nil {
		return nil, err
	}
	var traced []round
	if p.trace {
		tr := newTracer()
		if traced, err = measure(budget, tr); err != nil {
			return nil, err
		}
		// The last traced round's spans are the ones kept on disk.
		path := filepath.Join(p.outDir, "trace-"+def.name+".jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", def.name, err)
		}
	}

	rep := &report{Workload: def.name, Seed: p.seed, Trace: p.trace,
		Rounds: len(plain) + len(traced), OpsPerRound: ops,
		InputDigest: fmt.Sprintf("%016x", digest.Sum64())}
	for _, r := range append(append([]round(nil), plain...), traced...) {
		rep.Attempted += r.ops
		rep.Failed += r.failed
		rep.TimedS += r.wall.Seconds()
	}
	ca, cf, err := inst.check(checks)
	if err != nil {
		return nil, fmt.Errorf("%s: answer check: %w", def.name, err)
	}
	rep.Attempted += ca
	rep.Failed += cf
	rep.Correct = rep.Failed == 0

	rep.Values = foldRounds(plain, traced)
	rep.Values["setup_s"] = median(bootS)
	rep.Values["rss_peak_mb"] = peakRSSMB()
	return rep, nil
}

// foldRounds turns the rounds into metric values: a metric's value is the
// median over the rounds. End-to-end values, raw values and layer counts come
// from the untraced rounds; span-derived values from the traced ones.
func foldRounds(plain, traced []round) map[string]float64 {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var heap float64
	var commits []float64 // every commit of the run
	for _, r := range plain {
		n := float64(r.ops)
		add("raw.ops_per_s", n/r.wall.Seconds())
		add("ops_per_s", n/r.normWallS)
		add("ref_ms", r.refMs)
		add("cpu_us_per_op", r.normCPUS*1e6/n)
		add("allocs_per_op", float64(r.mallocs)/n)
		heap = max(heap, float64(r.heapLive)/(1<<20))

		add("p50_ms", r.p50)
		add("p95_ms", r.p95)
		add("raw.p50_ms", r.rawP50)
		add("raw.p95_ms", r.rawP95)
		if r.rawP99 > 0 {
			add("raw.p99_ms", r.rawP99)
		}
		if len(r.commits) > 0 {
			add("commit_p50_ms", percentile(r.commits, 50))
			add("commit_p95_ms", percentile(r.commits, 95))
			commits = append(commits, r.commits...)
		}
		for k, v := range r.layers {
			add(k, v)
		}
	}
	for _, r := range traced {
		add("traced.raw.ops_per_s", float64(r.ops)/r.wall.Seconds())
		for k, v := range r.spans {
			add(k, v)
		}
	}

	out := map[string]float64{"heap_live_mb": heap}
	for k, vs := range per {
		out[k] = median(vs)
	}
	if len(commits) >= minBeyond {
		// The stop-the-world flatten shows as the run's slowest commits.
		sort.Float64s(commits)
		out["commit_stall_ms"] = mean(commits[len(commits)-minBeyond:])
	}
	if t, ok := out["traced.raw.ops_per_s"]; ok {
		out["trace_overhead_frac"] = 1 - t/out["raw.ops_per_s"]
		delete(out, "traced.raw.ops_per_s")
	}
	if v, ok := out["server.handler.self_us"]; ok {
		out["server.self_us"] = v
	}
	if g := out["shard.gather_us"]; g > 0 {
		out["shard.bound_frac"] = out["shard.bound_us"] / g
	}
	return out
}
