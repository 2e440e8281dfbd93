package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/server"
	"repro/internal/subregion"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// replayEvery is the share of traced ops whose input is replayed through the
// lower layers: 1 in 8 keeps the traced run within ~2× of the untraced one
// while every round still replays hundreds of ops.
const replayEvery = 8

// hotPoints is the read_hot working set. The result cache holds 4,096 entries
// in 16 LRU shards of 256; 2,048 points leave every shard under its capacity
// however the keys hash, so after warm-up every request is a hit.
const hotPoints = 2048

// roundShift moves every cold query point between rounds, so no round finds
// an earlier round's results in the cache while the engine work stays the
// same.
const roundShift = 1e-3

// corpusSeed generates the datasets. The paper queries one dataset (Long
// Beach) from many points, and so does the benchmark: --seed draws the query
// points and the updates, the stored objects are the same for every seed. A
// seeded dataset moves every timing by ±5% through its cluster layout alone,
// which no run-to-run bound could tell from a regression.
const corpusSeed = 20080407

// longBeach generates the paper's dataset (§V-A: 53,144 intervals over a
// 10K-unit dimension, uniform pdfs), with n objects if n > 0, and a twentieth
// of them for the smoke pass.
func longBeach(n int, smoke bool) (*uncertain.Dataset, uncertain.GenOptions, error) {
	opt := uncertain.LongBeachOptions(corpusSeed)
	if n > 0 {
		opt.N = n
	}
	if smoke {
		opt.N /= 20
	}
	ds, err := uncertain.GenerateUniform(opt)
	return ds, opt, err
}

// queryPoints draws n query points over the middle 90% of the domain (so every
// query has data on both sides, as in the paper's random-query setup), one
// uniformly from each of n equal strata, in random order. Every seed covers
// the dataset's dense and sparse stretches in the same proportion, where n
// independent points would move a 500-query mean by ±6% from seed to seed.
func queryPoints(rng *rand.Rand, n int, domain float64) []float64 {
	pts := make([]float64, n)
	width := 0.9 * domain / float64(n)
	for i := range pts {
		pts[i] = 0.05*domain + (float64(i)+rng.Float64())*width
	}
	rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// replayCPNN replays query point q through the exact engine and, under it,
// through the public functions of the layers the engine is built from, as
// child spans of parent. Phase times and counts come from the engine's own
// Stats. It reports whether every call succeeded.
func replayCPNN(tr *tracer, op, parent int, eng *core.Engine, ix *filter.Index, q float64) bool {
	id := tr.begin(op, parent)
	res, err := eng.CPNN(q, paperConstraint, core.Options{})
	tr.end(id, "core.cpnn")
	if err != nil {
		return false
	}
	st := res.Stats
	tr.observe("core.filter_us", float64(st.FilterTime)/1e3)
	tr.observe("core.derive_us", float64(st.InitTime)/1e3)
	tr.observe("core.verify_us", float64(st.VerifyTime)/1e3)
	tr.observe("core.refine_us", float64(st.RefineTime)/1e3)
	tr.observe("core.candidates", float64(st.Candidates))
	tr.observe("core.subregions", float64(st.Subregions))
	tr.observe("refine.integrations", float64(st.Integrations))
	if st.Candidates > 0 {
		tr.observe("core.refined_frac", float64(st.RefinedObjects)/float64(st.Candidates))
		for k, name := range []string{"rs", "lsr", "usr"} {
			// A verifier the chain never reached left nothing unknown.
			unknown := 0
			if k < len(st.UnknownAfter) {
				unknown = st.UnknownAfter[k]
			}
			tr.observe("verify.unknown_frac_"+name, float64(unknown)/float64(st.Candidates))
		}
	}

	s := tr.begin(op, id)
	fr := ix.Candidates(q)
	tr.end(s, "filter.candidates")

	ds := ix.Dataset()
	cands := make([]subregion.Candidate, len(fr.IDs))
	s = tr.begin(op, id)
	for i, oid := range fr.IDs {
		d, err := dist.FromPDF(ds.Object(oid).PDF, q)
		if err != nil {
			return false
		}
		cands[i] = subregion.Candidate{ID: oid, Dist: d}
	}
	tr.end(s, "dist.fold")
	if len(cands) == 0 {
		return true
	}

	s = tr.begin(op, id)
	table, err := subregion.Build(cands)
	tr.end(s, "subregion.build")
	if err != nil {
		return false
	}

	s = tr.begin(op, id)
	_, err = verify.Run(table, paperConstraint, verify.DefaultChain())
	tr.end(s, "verify.run")
	return err == nil
}

// readBooter boots a snapshot server the way cpnn-serve -data does: parse the
// dataset text, build the index, construct the server.
type readBooter struct {
	text   []byte
	points []float64 // distinct query points
	seq    []int32   // read_hot: the op sequence, as indices into points
}

func prepareRead(hot bool) func(p params, ops int, dir string) (booter, error) {
	return func(p params, ops int, dir string) (booter, error) {
		ds, opt, err := longBeach(0, p.smoke)
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if _, err := ds.WriteTo(&text); err != nil {
			return nil, err
		}
		b := &readBooter{text: text.Bytes()}
		rng := rand.New(rand.NewSource(p.seed))
		if !hot {
			b.points = queryPoints(rng, ops, opt.Domain)
			return b, nil
		}
		b.points = queryPoints(rng, hotPoints, opt.Domain)
		zipf := rand.NewZipf(rng, 1.1, 1, hotPoints-1)
		b.seq = make([]int32, ops)
		for i := range b.seq {
			b.seq[i] = int32(zipf.Uint64())
		}
		return b, nil
	}
}

func (b *readBooter) boot() (instance, error) {
	ds, err := uncertain.Read(bytes.NewReader(b.text))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dataset: ds, Source: "bench"})
	if err != nil {
		return nil, err
	}
	in := &readInstance{b: b, srv: srv, h: srv.Handler(), w: newRespWriter()}
	if b.seq != nil {
		in.reqs = make([]*http.Request, len(b.points))
		for i, q := range b.points {
			in.reqs[i] = cpnnRequest(q)
		}
	}
	return in, nil
}

// readInstance serves read_cold (seq == nil: a fresh request per op, shifted
// every round) and read_hot (seq != nil: the same requests over and over).
type readInstance struct {
	b    *readBooter
	srv  *server.Server
	h    http.Handler
	w    *respWriter
	reqs []*http.Request
	tr   *tracer
	ix   *filter.Index // built on the first traced round
	pts  []float64     // read_cold: this round's shifted points

	hits, bytes int
}

func (in *readInstance) startRound(round int, tr *tracer) error {
	in.tr, in.hits, in.bytes = tr, 0, 0
	if tr != nil && in.ix == nil {
		ix, err := filter.NewIndex(in.srv.Snapshot().Engine.Dataset())
		if err != nil {
			return err
		}
		in.ix = ix
	}
	if in.b.seq != nil {
		if round == 0 { // warm-up: make every point resident
			for _, r := range in.reqs {
				if !in.w.do(in.h, r) {
					return fmt.Errorf("warming the result cache: status %d", in.w.status)
				}
			}
		}
		return nil
	}
	shift := float64(round) * roundShift
	in.pts = in.pts[:0]
	in.reqs = in.reqs[:0]
	for _, q := range in.b.points {
		in.pts = append(in.pts, q+shift)
		in.reqs = append(in.reqs, cpnnRequest(q+shift))
	}
	return nil
}

func (in *readInstance) op(i int) (int, bool) {
	hot := in.b.seq != nil
	at := i
	if hot {
		at = int(in.b.seq[i])
	}
	s := in.tr.begin(i, 0)
	ok := in.w.do(in.h, in.reqs[at])
	hit := in.w.hdr.Get("X-Cache") == server.Hit.String()
	if hit {
		in.tr.end(s, "server.hit")
		in.hits++
	} else {
		in.tr.end(s, "server.handler")
	}
	in.bytes += in.w.bytes
	// The workload's premise is part of its correctness: a cold request that
	// hits, or a hot one that misses, measures the wrong layer.
	ok = ok && hit == hot
	if in.tr != nil && !hot && i%replayEvery == 0 {
		ok = replayCPNN(in.tr, i, s, in.srv.Snapshot().Engine, in.ix, in.pts[at]) && ok
	}
	return opPrimary, ok
}

func (in *readInstance) endRound() map[string]float64 {
	n := float64(len(in.b.points))
	if in.b.seq != nil {
		n = float64(len(in.b.seq))
	}
	return map[string]float64{
		"server.hit_ratio":  float64(in.hits) / n,
		"server.resp_bytes": float64(in.bytes) / n,
	}
}

func (in *readInstance) inputs(w io.Writer) {
	if in.b.seq == nil {
		writeFloats(w, in.pts)
		return
	}
	writeFloats(w, in.b.points)
	binary.Write(w, binary.LittleEndian, in.b.seq)
}

func (in *readInstance) check(samples int) (int, int, error) {
	eng := in.srv.Snapshot().Engine
	pts := in.b.points[:min(samples, len(in.b.points))]
	return checkServed(in.h, pts, func(q float64) ([]answer, error) {
		return controlAnswers(eng, q, nil)
	})
}

func (in *readInstance) close() error { return in.srv.Close() }
