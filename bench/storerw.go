package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	// storeObjects 8-edge histograms make a base file of ≈21 MB, ≈85× the
	// page cache below: the one workload larger than the program's cache.
	storeObjects = 100_000
	storeDomain  = 1e5
	// Each commit updates storeBatch live objects and follows storeReads
	// reads, so reads and writes share the store and a gain for one that
	// costs the other shows.
	storeBatch = 8
	storeReads = 7
)

// storeOptions pins the page cache small; fsync is off because the sandbox's
// flush cost is noise, not a device. prepare sets the flatten threshold.
var storeOptions = store.Options{NoSync: true, CacheBytes: 256 << 10}

// histSpec is one histogram pdf in the /v1/objects wire form.
type histSpec struct {
	Edges   []float64 `json:"edges"`
	Weights []float64 `json:"weights"`
}

// objectSpec is one update of a POST /v1/objects body.
type objectSpec struct {
	ID   uint64   `json:"id"`
	Hist histSpec `json:"hist"`
}

// randomHist draws the exp.RunCapacity object: a 1–25 unit region anywhere in
// the domain under an 8-edge histogram with random weights.
func randomHist(rng *rand.Rand) histSpec {
	lo := rng.Float64() * storeDomain
	w := 1 + rng.Float64()*24
	hi := lo + w
	weights := make([]float64, 7)
	for i := range weights {
		weights[i] = 1 + rng.Float64()
	}
	return histSpec{
		Edges:   []float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + 7*w/8, hi - w/16, hi - w/32, hi},
		Weights: weights,
	}
}

// storeBooter boots a durable server over a store directory that prepare
// loaded and checkpointed: recover the store, construct the server.
type storeBooter struct {
	seed    int64
	dir     string
	objects int
	ops     int           // per round
	opt     store.Options // storeOptions plus the flatten threshold
}

func prepareStore(p params, ops int, dir string) (booter, error) {
	b := &storeBooter{seed: p.seed, dir: dir, objects: storeObjects, ops: ops, opt: storeOptions}
	if p.smoke {
		b.objects /= 20
	}
	st, err := store.Open(dir, storeOptions)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(corpusSeed))
	for off := 0; off < b.objects; off += 512 {
		batch := make([]store.Op, min(512, b.objects-off))
		for i := range batch {
			h := randomHist(rng)
			batch[i] = store.InsertObject(pdf.MustHistogram(h.Edges, h.Weights))
		}
		if _, err := st.Apply(batch); err != nil {
			st.Close()
			return nil, err
		}
	}
	// One commit of the workload's shape, to learn what a commit appends to
	// the WAL: the flatten threshold is then one round's worth, so every
	// round ends in exactly one flatten instead of one or two by chance.
	probe := make([]store.Op, storeBatch)
	for i := range probe {
		h := randomHist(rng)
		probe[i] = store.UpdateObject(uint64(i+1), pdf.MustHistogram(h.Edges, h.Weights))
	}
	before := st.Stats().WALAppendedBytes
	if _, err := st.Apply(probe); err != nil {
		st.Close()
		return nil, err
	}
	commits := ops / (storeReads + 1)
	b.opt.CheckpointBytes = int64(commits) * int64(st.Stats().WALAppendedBytes-before)
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return nil, err
	}
	return b, st.Close()
}

func (b *storeBooter) boot() (instance, error) {
	t0 := time.Now()
	st, err := store.Open(b.dir, b.opt)
	if err != nil {
		return nil, err
	}
	openMs := float64(time.Since(t0)) / 1e6
	srv, err := server.New(server.Config{Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &storeInstance{b: b, st: st, srv: srv, h: srv.Handler(), w: newRespWriter(),
		rng: rand.New(rand.NewSource(b.seed)), openMs: openMs}, nil
}

type storeInstance struct {
	b      *storeBooter
	st     *store.Store
	srv    *server.Server
	h      http.Handler
	w      *respWriter
	rng    *rand.Rand
	tr     *tracer
	openMs float64

	reqs    []*http.Request
	pts     []float64    // per op: the read's query point
	commits [][]store.Op // per op: the commit's ops (nil for a read)
	opBytes int          // the round's commits in the WAL payload encoding
	reads   int
	bytes   int
	before  store.Stats

	// Page-cache counters summed over the pools the flattens replaced (see
	// samplePool): the closed pools, the open one's last reading, and the
	// total at the round's start.
	pool, poolLast, poolBefore pagecache.Stats
}

// poolTotal returns the page-cache counters since boot.
func (in *storeInstance) poolTotal() pagecache.Stats {
	return pagecache.Stats{Hits: in.pool.Hits + in.poolLast.Hits, Misses: in.pool.Misses + in.poolLast.Misses,
		Evictions: in.pool.Evictions + in.poolLast.Evictions}
}

func (in *storeInstance) startRound(round int, tr *tracer) error {
	in.tr, in.bytes, in.opBytes, in.reads = tr, 0, 0, 0
	in.reqs, in.pts, in.commits = in.reqs[:0], in.pts[:0], in.commits[:0]
	reads := queryPoints(in.rng, in.b.ops-in.b.ops/(storeReads+1), storeDomain)
	for i := 0; i < in.b.ops; i++ {
		if i%(storeReads+1) != storeReads {
			q := reads[in.reads]
			in.reqs = append(in.reqs, cpnnRequest(q))
			in.pts = append(in.pts, q)
			in.commits = append(in.commits, nil)
			in.reads++
			continue
		}
		specs := make([]objectSpec, storeBatch)
		ops := make([]store.Op, storeBatch)
		for j := range specs {
			// Updates keep their IDs, so 1..objects stay live for ever.
			id := uint64(1 + in.rng.Intn(in.b.objects))
			h := randomHist(in.rng)
			specs[j] = objectSpec{ID: id, Hist: h}
			ops[j] = store.UpdateObject(id, pdf.MustHistogram(h.Edges, h.Weights))
		}
		body, err := json.Marshal(map[string]any{"objects": specs})
		if err != nil {
			return err
		}
		payload, err := store.EncodeOps(ops)
		if err != nil {
			return err
		}
		in.opBytes += len(payload)
		in.reqs = append(in.reqs, postRequest("/v1/objects", body))
		in.pts = append(in.pts, 0)
		in.commits = append(in.commits, ops)
	}
	in.before = in.st.Stats()
	in.samplePool()
	in.poolBefore = in.poolTotal()
	return nil
}

// samplePool folds the page cache's counters into pool. Every flatten opens a
// new pool that counts from zero, so the counters are read before each commit
// (the only op that can flatten) and a drop means the old pool's last reading
// was its total.
func (in *storeInstance) samplePool() {
	now := in.st.Stats().PageCache
	if now.Hits < in.poolLast.Hits || now.Misses < in.poolLast.Misses {
		in.pool.Hits += in.poolLast.Hits
		in.pool.Misses += in.poolLast.Misses
		in.pool.Evictions += in.poolLast.Evictions
	}
	in.poolLast = now
}

func (in *storeInstance) op(i int) (int, bool) {
	if in.commits[i] != nil {
		in.samplePool()
	}
	s := in.tr.begin(i, 0)
	ok := in.w.do(in.h, in.reqs[i])
	if ops := in.commits[i]; ops != nil {
		in.tr.end(s, "server.commit")
		// Replay 1 commit in replayEvery straight into the store. The server
		// installs views only from its own handler, so its snapshot lags by
		// this one commit until the next POST — traced rounds only.
		if in.tr != nil && i/(storeReads+1)%replayEvery == 0 {
			a := in.tr.begin(i, s)
			_, err := in.st.Apply(ops)
			in.tr.end(a, "store.apply")
			ok = ok && err == nil
		}
		return opCommit, ok
	}
	in.tr.end(s, "server.handler")
	in.bytes += in.w.bytes
	if in.tr != nil && i%replayEvery == 0 {
		v := in.st.View()
		eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
		ok = err == nil && replayCPNN(in.tr, i, s, eng, v.Index, in.pts[i]) && ok
	}
	return opPrimary, ok
}

func (in *storeInstance) endRound() map[string]float64 {
	a, b := in.st.Stats(), in.before
	commits := float64(a.Commits - b.Commits)
	ckpts := float64(a.Checkpoints - b.Checkpoints)
	wal := float64(a.WALAppendedBytes - b.WALAppendedBytes)
	in.samplePool()
	pool := in.poolTotal()
	hits := float64(pool.Hits - in.poolBefore.Hits)
	misses := float64(pool.Misses - in.poolBefore.Misses)
	out := map[string]float64{
		"server.resp_bytes":          float64(in.bytes) / float64(in.reads),
		"pagecache.misses_per_read":  misses / float64(in.reads),
		"pagecache.evictions":        float64(pool.Evictions - in.poolBefore.Evictions),
		"pagecache.resident_kb":      float64(a.PageCache.ResidentPages) * pager.PageSize / 1024,
		"store.wal_bytes_per_commit": wal / commits,
		"store.overlay_slots":        float64(a.OverlaySlots),
		"store.checkpoints":          ckpts,
		"store.open_ms":              in.openMs,
		// Every flatten rewrites the whole base file.
		"store.write_amp": (wal + ckpts*float64(a.BasePages)*pager.PageSize) / float64(in.opBytes),
	}
	if hits+misses > 0 {
		out["pagecache.hit_ratio"] = hits / (hits + misses)
	}
	if ckpts > 0 {
		out["store.checkpoint_ms"] = float64(a.CheckpointNanos-b.CheckpointNanos) / 1e6 / ckpts
	}
	return out
}

func (in *storeInstance) inputs(w io.Writer) {
	writeFloats(w, in.pts)
	for _, ops := range in.commits {
		writeOps(w, ops)
	}
}

// check compares served answers with the exact engine over the same view;
// nothing commits meanwhile, so the snapshot is the view the server reads.
func (in *storeInstance) check(samples int) (int, int, error) {
	snap := in.srv.Snapshot()
	return checkServed(in.h, queryPoints(in.rng, samples, storeDomain), func(q float64) ([]answer, error) {
		return controlAnswers(snap.Engine, q, snap.IDs)
	})
}

// close checkpoints and closes the store through the server, which owns it.
func (in *storeInstance) close() error { return in.srv.Close() }
