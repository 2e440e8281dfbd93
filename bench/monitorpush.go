package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
)

const (
	monitorObjects = 20_000
	monitorQueries = 200
	monitorBatch   = 64
	// Each update moves an object by a N(0, monitorStep) step and keeps its
	// length — the paper's moving-object scenario. Over a run an object takes
	// a few dozen steps, so the dataset's density stays what it was.
	monitorStep = 5.0
	// incSamples standing queries are also evaluated incrementally by the
	// driver on every traced commit, for core.incremental_us.
	incSamples = 4
	syncWait   = 30 * time.Second
)

// monitorStoreOptions turns the automatic flatten off: at ≈1.6 KB of WAL per
// commit it would fire once in several rounds and make them unequal. The
// flatten is store_rw's to measure.
var monitorStoreOptions = store.Options{NoSync: true, CheckpointBytes: -1}

// monitorBooter boots the continuous-query stack over a store directory that
// prepare loaded: recover the store, start the monitor, register the standing
// queries, attach one subscriber.
type monitorBooter struct {
	seed   int64
	dir    string
	ops    int // commits per round
	domain float64
	lo, hi []float64 // the loaded regions, by stable ID − 1
	specs  []monitor.Spec
}

func prepareMonitor(p params, ops int, dir string) (booter, error) {
	queries := monitorQueries
	if p.smoke {
		queries /= 20
	}
	ds, opt, err := longBeach(monitorObjects, p.smoke)
	if err != nil {
		return nil, err
	}
	b := &monitorBooter{seed: p.seed, dir: dir, ops: ops, domain: opt.Domain}
	for i := 0; i < ds.Len(); i++ {
		r := ds.Region(i)
		b.lo, b.hi = append(b.lo, r.Lo), append(b.hi, r.Hi)
	}
	for _, q := range queryPoints(rand.New(rand.NewSource(p.seed)), queries, opt.Domain) {
		b.specs = append(b.specs, monitor.Spec{Kind: monitor.KindCPNN, Q: q, Constraint: paperConstraint})
	}

	load, err := store.DatasetOps(ds)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, monitorStoreOptions)
	if err != nil {
		return nil, err
	}
	res, err := st.Apply(load)
	if n := uint64(ds.Len()); err == nil && res.IDs[len(res.IDs)-1] != n {
		err = fmt.Errorf("dataset load assigned ID %d to object %d", res.IDs[len(res.IDs)-1], n)
	}
	if err == nil {
		err = st.Checkpoint()
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return b, st.Close()
}

func (b *monitorBooter) boot() (instance, error) {
	t0 := time.Now()
	st, err := store.Open(b.dir, monitorStoreOptions)
	if err != nil {
		return nil, err
	}
	openMs := float64(time.Since(t0)) / 1e6
	mon, err := monitor.New(monitor.Config{Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	in := &monitorInstance{b: b, st: st, mon: mon, openMs: openMs,
		rng: rand.New(rand.NewSource(b.seed)),
		lo:  slices.Clone(b.lo), hi: slices.Clone(b.hi),
		drained: make(chan struct{})}
	for _, spec := range b.specs {
		state, err := mon.Register(spec)
		if err != nil {
			in.close()
			return nil, err
		}
		in.ids = append(in.ids, state.ID)
	}
	// Room for every standing query's update on every commit in flight, so
	// the subscriber is never the reason an update is dropped.
	in.sub, err = mon.Subscribe(nil, 4*len(b.specs)+16)
	if err != nil {
		in.close()
		return nil, err
	}
	go func() {
		defer close(in.drained)
		for ev := range in.sub.C() {
			if ev.Type == monitor.EventLagged {
				in.lagged.Add(1)
			}
		}
	}()
	return in, nil
}

type monitorInstance struct {
	b       *monitorBooter
	st      *store.Store
	mon     *monitor.Monitor
	sub     *monitor.Subscription
	drained chan struct{}
	lagged  atomic.Int64
	ids     []uint64 // monitor IDs, aligned with b.specs
	rng     *rand.Rand
	lo, hi  []float64
	tr      *tracer
	openMs  float64

	commits [][]store.Op
	beforeM monitor.Stats
	beforeS store.Stats

	// The driver's own incremental evaluation of the first incSamples
	// standing queries: valid while it has seen every commit since incAt.
	inc   []*core.EvalState
	incAt uint64
}

func (in *monitorInstance) startRound(round int, tr *tracer) error {
	in.tr = tr
	in.commits = in.commits[:0]
	for c := 0; c < in.b.ops; c++ {
		ops := make([]store.Op, monitorBatch)
		for j := range ops {
			at := in.rng.Intn(len(in.lo))
			length := in.hi[at] - in.lo[at]
			lo := min(max(in.lo[at]+in.rng.NormFloat64()*monitorStep, 0), in.b.domain)
			in.lo[at], in.hi[at] = lo, lo+length
			ops[j] = store.UpdateObject(uint64(at+1), pdf.MustUniform(lo, lo+length))
		}
		in.commits = append(in.commits, ops)
	}
	in.beforeM, in.beforeS = in.mon.Stats(), in.st.Stats()
	return nil
}

// op commits one batch and waits until every affected standing answer has
// been re-verified and pushed.
func (in *monitorInstance) op(i int) (int, bool) {
	root := in.tr.begin(i, 0)
	s := in.tr.begin(i, root)
	_, err := in.st.Apply(in.commits[i])
	in.tr.end(s, "store.apply")
	ok := err == nil
	s = in.tr.begin(i, root)
	err = in.mon.Sync(syncWait)
	in.tr.end(s, "monitor.sync")
	in.tr.end(root, "monitor.commit")
	ok = ok && err == nil
	if in.tr != nil {
		ok = in.replayIncremental(i, s) && ok
	}
	return opPrimary, ok
}

// replayIncremental re-evaluates the sample queries against the new view the
// way a monitor worker does, from the driver's own evaluation states.
func (in *monitorInstance) replayIncremental(op, parent int) bool {
	v := in.st.View()
	eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		return false
	}
	if in.inc == nil {
		for range min(incSamples, len(in.b.specs)) {
			in.inc = append(in.inc, core.NewEvalState())
		}
	}
	// The changed set is exhaustive only if the states saw the previous
	// commit; otherwise (the first traced commit) everything is re-derived.
	full := v.Version != in.incAt+1
	in.incAt = v.Version
	// Updates never re-slot, so an object loaded as the ID-th sits in dense
	// slot ID−1; the engine validates the hint against the view anyway.
	changed := make(map[uint64]int, monitorBatch)
	for _, o := range in.commits[op] {
		changed[o.ID] = int(o.ID) - 1
	}
	for k, st := range in.inc {
		s := in.tr.begin(op, parent)
		_, _, _, err := monitor.EvaluateIncremental(v, eng, st, in.b.specs[k], changed, full)
		in.tr.end(s, "core.incremental")
		if err != nil {
			return false
		}
	}
	return true
}

func (in *monitorInstance) endRound() map[string]float64 {
	m, bm := in.mon.Stats(), in.beforeM
	s, bs := in.st.Stats(), in.beforeS
	commits := float64(s.Commits - bs.Commits)
	out := map[string]float64{
		"monitor.early_exits":        float64(m.EarlyExits-bm.EarlyExits) / commits,
		"monitor.pushes_per_commit":  float64(m.Pushes-bm.Pushes) / commits,
		"monitor.state_kb":           float64(m.StateBytes) / 1024,
		"store.wal_bytes_per_commit": float64(s.WALAppendedBytes-bs.WALAppendedBytes) / commits,
		"store.overlay_slots":        float64(s.OverlaySlots),
		"store.open_ms":              in.openMs,
	}
	if joined := float64(m.Affected - bm.Affected + m.Pruned - bm.Pruned); joined > 0 {
		out["monitor.reeval_frac"] = float64(m.Affected-bm.Affected) / joined
	}
	if folds := float64(m.IncrementalReused - bm.IncrementalReused + m.IncrementalDerived - bm.IncrementalDerived); folds > 0 {
		out["monitor.fold_reuse_frac"] = float64(m.IncrementalReused-bm.IncrementalReused) / folds
	}
	return out
}

func (in *monitorInstance) inputs(w io.Writer) {
	for _, ops := range in.commits {
		writeOps(w, ops)
	}
}

// check compares every standing answer with a fresh evaluation on the final
// view; a dropped push or a failed evaluation counts as a failed op too.
func (in *monitorInstance) check(int) (int, int, error) {
	if err := in.mon.Sync(syncWait); err != nil {
		return 0, 0, err
	}
	v := in.st.View()
	eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		return 0, 0, err
	}
	failed := int(in.lagged.Load()) + int(in.mon.Stats().Errors)
	for k, spec := range in.b.specs {
		want, _, err := monitor.Evaluate(v, eng, nil, spec)
		if err != nil {
			return 0, 0, err
		}
		if state, ok := in.mon.Get(in.ids[k]); !ok || !bytes.Equal(state.Answer, want) {
			failed++
		}
	}
	return len(in.b.specs), failed, nil
}

func (in *monitorInstance) close() error {
	if in.sub != nil {
		in.sub.Close()
		<-in.drained
	}
	in.mon.Close()
	return in.st.Close()
}
