package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
)

// shardCount is K, the number of range shards of the shard_read cluster.
const shardCount = 4

// shardBooter boots a scatter-gather server over a cluster that prepare
// split once: open every member store, boot the router, construct the server
// — what cpnn-serve -shards K does on an existing cluster directory.
type shardBooter struct {
	smoke  bool
	dir    string
	points []float64
}

// loadIDs returns the stable IDs a single store's dataset load would assign to
// n objects, so the sharded answers are comparable with a single engine's.
func loadIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

func prepareShard(p params, ops int, dir string) (booter, error) {
	ds, opt, err := longBeach(0, p.smoke)
	if err != nil {
		return nil, err
	}
	view := &store.View{Dataset: ds, IDs: loadIDs(ds.Len()), NextID: uint64(ds.Len()) + 1}
	b := &shardBooter{smoke: p.smoke, dir: filepath.Join(dir, "cluster"),
		// Drawn like read_cold's points, so the two p50s divide into the
		// router gap.
		points: queryPoints(rand.New(rand.NewSource(p.seed)), ops, opt.Domain)}
	cluster, err := shard.CreateCluster(b.dir, shardCount, view, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	return b, cluster.Close()
}

func (b *shardBooter) boot() (instance, error) {
	cluster, err := shard.OpenCluster(b.dir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	rt, err := cluster.Router()
	if err != nil {
		cluster.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{ShardRouter: rt, ShardCluster: cluster})
	if err != nil {
		rt.Close()
		cluster.Close()
		return nil, err
	}
	return &shardInstance{b: b, cluster: cluster, rt: rt, members: cluster.Members(),
		srv: srv, h: srv.Handler(), w: newRespWriter()}, nil
}

type shardInstance struct {
	b       *shardBooter
	cluster *shard.Cluster
	rt      *shard.Router
	members []shard.Member
	srv     *server.Server
	h       http.Handler
	w       *respWriter
	tr      *tracer
	pts     []float64
	reqs    []*http.Request
	bytes   int
	before  shard.Stats
}

func (in *shardInstance) startRound(round int, tr *tracer) error {
	in.tr, in.bytes = tr, 0
	shift := float64(round) * roundShift
	in.pts, in.reqs = in.pts[:0], in.reqs[:0]
	for _, q := range in.b.points {
		in.pts = append(in.pts, q+shift)
		in.reqs = append(in.reqs, cpnnRequest(q+shift))
	}
	in.before = in.rt.Stats()
	return nil
}

func (in *shardInstance) op(i int) (int, bool) {
	s := in.tr.begin(i, 0)
	ok := in.w.do(in.h, in.reqs[i])
	in.tr.end(s, "server.handler")
	in.bytes += in.w.bytes
	if in.tr != nil && i%replayEvery == 0 {
		ok = in.replay(i, s, in.pts[i]) && ok
	}
	return opPrimary, ok
}

// replay runs the router's scatter-gather for q directly, then each phase of
// it member by member, then the exact engine over the merged mini-view.
func (in *shardInstance) replay(op, parent int, q float64) bool {
	ctx := context.Background()
	g := in.tr.begin(op, parent)
	gathered, err := in.rt.Gather(ctx, q, 1)
	in.tr.end(g, "shard.gather")
	if err != nil {
		return false
	}
	in.tr.observe("shard.miniview_objects", float64(gathered.View.Dataset.Len()))

	// The router bounds its members in parallel, so the slowest one sets the
	// phase's time; the sum is the CPU the phase costs.
	var slowest, sum float64
	for _, m := range in.members {
		s := in.tr.begin(op, g)
		info, err := m.Bound(ctx, q, 1)
		in.tr.end(s, "shard.member_bound")
		if err != nil {
			return false
		}
		d := in.tr.dur(s)
		slowest, sum = max(slowest, d), sum+d
		if !info.HasExtent || info.Extent.MinX > q+gathered.Bound || info.Extent.MaxX < q-gathered.Bound {
			continue // the candidate ball misses this shard
		}
		s = in.tr.begin(op, g)
		_, _, err = m.Gather(ctx, q, gathered.Bound)
		in.tr.end(s, "shard.member_gather")
		if err != nil {
			return false
		}
	}
	in.tr.observe("shard.bound_us", slowest)
	in.tr.observe("shard.bound_sum_us", sum)

	ix, err := filter.NewIndex(gathered.View.Dataset)
	if err != nil {
		return false
	}
	eng, err := core.NewEngineWithIndex(gathered.View.Dataset, ix)
	if err != nil {
		return false
	}
	return replayCPNN(in.tr, op, parent, eng, ix, q)
}

func (in *shardInstance) endRound() map[string]float64 {
	after := in.rt.Stats()
	queries := float64(after.Queries - in.before.Queries)
	return map[string]float64{
		"server.resp_bytes": float64(in.bytes) / float64(len(in.reqs)),
		"shard.fanout":      float64(after.GatherContacts-in.before.GatherContacts) / queries,
		"shard.retries":     float64(after.Retries - in.before.Retries),
		"shard.merge_us":    float64(after.MergeNanos-in.before.MergeNanos) / 1e3 / queries,
	}
}

func (in *shardInstance) inputs(w io.Writer) { writeFloats(w, in.pts) }

// check compares served answers with a single engine over the whole dataset.
func (in *shardInstance) check(samples int) (int, int, error) {
	ds, _, err := longBeach(0, in.b.smoke)
	if err != nil {
		return 0, 0, err
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return 0, 0, err
	}
	ids := loadIDs(ds.Len())
	pts := in.b.points[:min(samples, len(in.b.points))]
	return checkServed(in.h, pts, func(q float64) ([]answer, error) {
		return controlAnswers(eng, q, ids)
	})
}

func (in *shardInstance) close() error {
	err := in.srv.Close()
	if e := in.rt.Close(); err == nil {
		err = e
	}
	if e := in.cluster.Close(); err == nil {
		err = e
	}
	return err
}
