package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// The oracles compare the engine with brute force inside a tolerance and the
// bench answer check compares a build with itself, so neither notices an
// answer moving in its last bits. TestAnswerDigest does: it hashes every
// answer of every entry point over fixed-seed datasets and compares with
// constants recorded before the 1-D and 2-D engine bodies were folded into
// one pipeline. A digest that moves means some float operation changed order
// or operand; regenerate a constant only for a change that intends that.
// k-NN answers hash into sections of their own (*/knn, */knn-incremental),
// and so do PNN's probabilities (*/pnn, */pnn-incremental), so a change to
// the k-NN method or to PNN's exact integration re-records those and nothing
// else.

// answerDigests maps dataset/section to the SHA-256 of that section's answer
// stream.
var answerDigests = map[string]string{
	"uniform/stateless":         "9d7de15a20543272d96e2d3b4d7bc96da2dc2d38aff8dc0e55da07ce9a29b201",
	"uniform/pnn":               "4456a3cf5cce547192e179efca9c2cbd133b2d74ef53a4259a57d85e57747db9",
	"uniform/line":              "1c3b1e652e44652287b45552101eb0c4b6f302fc27c2cdb0625026d47a796111",
	"uniform/knn":               "da09641d3fea1c36e99c05ebdc64b7cdf5f162c5ad98815d5074cfdec26123c6",
	"uniform/incremental":       "0487829ae7d28fb9e11b85bd7b9dfb2531c428e7826df3cb1551877e13d1d1f2",
	"uniform/pnn-incremental":   "06acc7cbbb7700e643114db90d1444ba6f9a06467e268a030784d4d394e56ba5",
	"uniform/knn-incremental":   "7a0a78748160b5dbe42e3d222d0003c9af212ae81595afe335123c07dc45ba6a",
	"histogram/stateless":       "f684dc6ceaad22f8951b397f9ee5cd78382d111a7960514f64f18ea72c36d026",
	"histogram/pnn":             "11f25a27217b47c4200b75424bcd1b09dc35ca37c39eb70c6fdc056bf0a384fb",
	"histogram/line":            "d895c50d07384d7b83f291a6871eb1c56d388fb6014e1039986a29b8663372ad",
	"histogram/knn":             "1453650363e44d830175598c499f22a41e0b938ad74f866408a6bbfe256f41e8",
	"histogram/incremental":     "283b4fccd02623aebaeb8a7ce2c806d98caed6f212f66914357e0e353c29952e",
	"histogram/pnn-incremental": "0f6f900ace1a6798f4644af1e0990a63b3b6e8e975bbb96294b462e64c627373",
	"histogram/knn-incremental": "6f3ddc723489250d8fdce22ee9263ac234311a41c6d1e71a9aa13ad1d51e89a5",
	"gaussian/stateless":        "f9593a180e611ea998457fd9b0acc2667681794c1ac3fb7f8d9afc3b77f71319",
	"gaussian/pnn":              "5afa486460321e7f5564600f2845459648111ec13d7e7bcf62eeb24dd7bc5647",
	"gaussian/line":             "e0428caa3325173a59f92c9e5cc73086164a07bda07d7e051fb6264bac67788d",
	"gaussian/knn":              "8ef38d73b1567a928ba969fb039a7d9c87b7a3e0356057dc0b07e99b19042246",
	"gaussian/incremental":      "a72a0195b4195353d19d23a254accd7f1edc896fe382931e8c2ddad76d830a2b",
	"gaussian/pnn-incremental":  "dfac2a750fa9b90b84474922a38efbb1bb89c7e728c8213b91edc1a3a7e78e8f",
	"gaussian/knn-incremental":  "8a7a8559666d1747d51f2d6c25bcb4e544dfd6dd8271e2ed1bc98bf4cc75a899",
	"disks/stateless":           "7680cad57fa8719457b14f09cae3e4426953a8d129a0ac0cc44766b6f9778834",
	"disks/pnn":                 "2efdf6e94ebcd8c81b58f19797fc3420931db6b1180e88cffd55e8ce9ac241d1",
}

// digest accumulates one section's answer stream.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) bool(v bool) {
	if v {
		d.ints(1)
	} else {
		d.ints(0)
	}
}

// stats hashes the fields of a Stats that are functions of the input alone
// (the four timers are not).
func (d *digest) stats(s Stats) {
	d.ints(s.Candidates, s.Subregions, s.RefinedObjects, s.Integrations, len(s.UnknownAfter))
	d.ints(s.UnknownAfter...)
	d.floats(s.FMin)
}

func (d *digest) result(r *Result) {
	if r == nil {
		d.ints(-1)
		return
	}
	d.ints(len(r.Candidates), len(r.Answers))
	for _, a := range r.Candidates {
		d.ints(a.ID, int(a.Status))
		d.floats(a.Bounds.L, a.Bounds.U)
	}
	for _, a := range r.Answers {
		d.ints(a.ID)
	}
	d.stats(r.Stats)
}

func (d *digest) probs(ps []Probability) {
	d.ints(len(ps))
	for _, p := range ps {
		d.ints(p.ID)
		d.floats(p.P)
	}
}

func (d *digest) knn(as []KNNAnswer, st Stats) {
	d.ints(len(as))
	for _, a := range as {
		d.ints(a.ID, int(a.Status))
		d.floats(a.Bounds.L, a.Bounds.U)
	}
	d.stats(st)
}

func (d *digest) inc(s IncrementalStats) {
	d.bool(s.Skipped)
	d.ints(s.Reused, s.Derived)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestPDF draws one pdf of the named flavour with its region starting in
// [0, span).
func digestPDF(t *testing.T, flavour string, rng *rand.Rand, span float64) pdf.PDF {
	t.Helper()
	lo := rng.Float64() * span
	switch flavour {
	case "uniform":
		return pdf.MustUniform(lo, lo+1+rng.Float64()*20)
	case "histogram":
		bins := 3 + rng.Intn(6)
		edges, weights := make([]float64, bins+1), make([]float64, bins)
		edges[0] = lo
		for i := range weights {
			edges[i+1] = edges[i] + 0.5 + rng.Float64()*4
			weights[i] = 0.1 + rng.Float64()
		}
		return pdf.MustHistogram(edges, weights)
	default:
		g, err := pdf.PaperGaussian(lo, lo+2+rng.Float64()*18)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// pipelineEngine is what the digest drives on both engines.
type pipelineEngine[Q any] interface {
	CPNN(Q, verify.Constraint, Options) (*Result, error)
	PNN(Q, Options) ([]Probability, Stats, error)
}

// digestStateless hashes CPNN under the three strategies over qs, then
// under the given options once more: the recorded constants hash that
// second pass too.
func digestStateless[Q any](t *testing.T, e pipelineEngine[Q], qs []Q, opt Options) string {
	t.Helper()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	d := newDigest()
	for _, s := range []Strategy{VR, Refine, Basic} {
		o := opt
		o.Strategy = s
		for _, q := range qs {
			res, err := e.CPNN(q, c, o)
			if err != nil {
				t.Fatal(err)
			}
			d.result(res)
		}
	}
	for _, q := range qs {
		res, err := e.CPNN(q, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		d.result(res)
	}
	return d.sum()
}

// digestPNN hashes PNN's probabilities over qs. Its Stats are not hashed
// here: digestLine hashes the 1-D engine's, and the planar PNN returned none
// when the constants were first recorded.
func digestPNN[Q any](t *testing.T, e pipelineEngine[Q], qs []Q, opt Options) string {
	t.Helper()
	d := newDigest()
	for _, q := range qs {
		ps, _, err := e.PNN(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		d.probs(ps)
	}
	return d.sum()
}

// digestLine hashes what only the 1-D engine offers besides k-NN: PNN's
// Stats, and CPNN interleaved with PNN on the pooled scratch.
func digestLine(t *testing.T, e *Engine, qs []float64) string {
	t.Helper()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	d := newDigest()
	for _, q := range qs {
		_, st, err := e.PNN(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.stats(st)
		res, err := e.CPNN(q, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.result(res)
	}
	return d.sum()
}

// digestKNN hashes CKNN, in a section of its own so a change to the k-NN
// method moves no C-PNN or PNN constant.
func digestKNN(t *testing.T, e *Engine, qs []float64) string {
	t.Helper()
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	d := newDigest()
	for _, q := range qs {
		as, st, err := e.CKNN(q, c, KNNOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		d.knn(as, st)
	}
	return d.sum()
}

// digestIncremental hashes the incremental entry points along a scripted
// 20-step change sequence (inserts, swap-into-hole deletes and replacements)
// over a 60-object world of the flavour, a fresh engine per step as the
// monitor sees one per view. CPNNIncremental goes into the first sum,
// PNNIncremental into the second and both KNNIncremental streams into the
// third.
func digestIncremental(t *testing.T, flavour string, seed int64) (cpnn, pnn, knn string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const span = 100
	objs := map[uint64]pdf.PDF{}
	var slots []uint64
	next := uint64(0)
	insert := func() uint64 {
		id := next
		next++
		objs[id] = digestPDF(t, flavour, rng, span)
		slots = append(slots, id)
		return id
	}
	for i := 0; i < 60; i++ {
		insert()
	}
	// draw consumes the coin each insert and update once tossed for a
	// dense-slot hint, so the op sequences — and the constants — stay as
	// recorded. The changed set's values are unread.
	draw := func() int {
		rng.Intn(2)
		return 0
	}
	c := verify.Constraint{P: 0.25, Delta: 0.01}
	qC, qP, qK := rng.Float64()*span, rng.Float64()*span, rng.Float64()*span
	stC, stP, stK, stK1 := NewEvalState(), NewEvalState(), NewEvalState(), NewEvalState()
	d, dp, dk := newDigest(), newDigest(), newDigest()
	for step := 0; step < 20; step++ {
		var changed map[uint64]int
		if step > 0 {
			changed = map[uint64]int{}
			for op := 0; op <= step%3; op++ {
				switch rng.Intn(4) {
				case 0:
					changed[insert()] = draw()
				case 1:
					slot := rng.Intn(len(slots))
					id, last := slots[slot], len(slots)-1
					slots[slot] = slots[last]
					slots = slots[:last]
					delete(objs, id)
					changed[id] = 0
				default:
					slot := rng.Intn(len(slots))
					objs[slots[slot]] = digestPDF(t, flavour, rng, span)
					changed[slots[slot]] = draw()
				}
			}
		}
		pdfs := make([]pdf.PDF, len(slots))
		for i, id := range slots {
			pdfs[i] = objs[id]
		}
		ids := append([]uint64(nil), slots...)
		e, err := NewEngine(uncertain.NewDataset(pdfs))
		if err != nil {
			t.Fatal(err)
		}

		res, inc, err := e.CPNNIncremental(qC, c, Options{}, stC, ids, changed)
		if err != nil {
			t.Fatal(err)
		}
		d.result(res)
		d.inc(inc)
		ps, st, inc, err := e.PNNIncremental(qP, Options{}, stP, ids, changed)
		if err != nil {
			t.Fatal(err)
		}
		dp.probs(ps)
		dp.stats(st)
		dp.inc(inc)
		as, st, inc, err := e.KNNIncremental(qK, c, KNNOptions{K: 3}, stK, ids, changed)
		if err != nil {
			t.Fatal(err)
		}
		dk.knn(as, st)
		dk.inc(inc)
		// K = 1 filters like a C-PNN (Index.AppendCandidates), deeper K by the
		// f_k walk.
		as, st, inc, err = e.KNNIncremental(qC, c, KNNOptions{K: 1}, stK1, ids, changed)
		if err != nil {
			t.Fatal(err)
		}
		dk.knn(as, st)
		dk.inc(inc)
	}
	return d.sum(), dp.sum(), dk.sum()
}

// digestFlavours names the digest's 1-D worlds, in seed order.
var digestFlavours = []string{"uniform", "histogram", "gaussian"}

// digestDiskBins is the planar world's discretization resolution.
const digestDiskBins = 128

// digestWorld builds the fixed-seed 1-D world of digestFlavours[i] and its
// 64 query points.
func digestWorld(t *testing.T, i int) (*Engine, []float64) {
	t.Helper()
	flavour := digestFlavours[i]
	rng := rand.New(rand.NewSource(int64(100 + i)))
	n := 300
	if flavour == "gaussian" {
		n = 120 // each object is discretized once per engine
	}
	span := float64(n) * 2
	pdfs := make([]pdf.PDF, n)
	for j := range pdfs {
		pdfs[j] = digestPDF(t, flavour, rng, span)
	}
	e, err := NewEngine(uncertain.NewDataset(pdfs))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, 64)
	for j := range qs {
		qs[j] = rng.Float64() * span
	}
	return e, qs
}

// digestDisks builds the fixed-seed planar world of 400 disks and its 64
// query points.
func digestDisks(t *testing.T) (*Engine2D, []geom.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(103))
	disks := make([]Object2D, 400)
	for i := range disks {
		disks[i] = Object2D{ID: 1000 + 3*i, Region: geom.Circle{
			Center: geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			Radius: 1 + rng.Float64()*8,
		}}
	}
	e, err := NewEngine2D(disks)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
	}
	return e, pts
}

func TestAnswerDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	got := map[string]string{}
	for i, flavour := range digestFlavours {
		e, qs := digestWorld(t, i)
		got[flavour+"/stateless"] = digestStateless(t, e, qs, Options{})
		got[flavour+"/pnn"] = digestPNN(t, e, qs, Options{})
		got[flavour+"/line"] = digestLine(t, e, qs)
		got[flavour+"/knn"] = digestKNN(t, e, qs)
		got[flavour+"/incremental"], got[flavour+"/pnn-incremental"], got[flavour+"/knn-incremental"] = digestIncremental(t, flavour, int64(200+i))
	}
	e2, pts := digestDisks(t)
	got["disks/stateless"] = digestStateless(t, e2, pts, Options{Bins: digestDiskBins})
	got["disks/pnn"] = digestPNN(t, e2, pts, Options{Bins: digestDiskBins})

	for key, sum := range got {
		if want := answerDigests[key]; sum != want {
			t.Errorf("%s: digest %s, recorded %q", key, sum, want)
		}
	}
	if len(got) != len(answerDigests) {
		t.Errorf("%d sections hashed, %d recorded", len(got), len(answerDigests))
	}
}
