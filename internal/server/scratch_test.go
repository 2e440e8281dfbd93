package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// scratchConstraint is the constraint every served query of these tests
// carries (the handlers' own default).
var scratchConstraint = verify.Constraint{P: 0.3, Delta: 0.01}

// longBeachSlice generates n objects of the paper's Long Beach workload at
// the full dataset's density — domain and cluster count shrink with n — so
// candidate sets are as large as on the 53,144-object set while the fixture
// stays small enough to shard four ways inside a test.
func longBeachSlice(t *testing.T, n int) ([]pdf.PDF, uncertain.GenOptions) {
	t.Helper()
	opt := uncertain.LongBeachOptions(1)
	scale := float64(n) / float64(opt.N)
	opt.N, opt.Domain, opt.Clusters = n, opt.Domain*scale, max(1, int(float64(opt.Clusters)*scale))
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		t.Fatal(err)
	}
	pdfs := make([]pdf.PDF, ds.Len())
	for i := range pdfs {
		pdfs[i] = ds.Object(i).PDF
	}
	return pdfs, opt
}

// stratifiedPoints returns one query point from each of n equal strata of
// the domain's middle 90%, ascending, plus the point of a 4n-stratum scan
// with the largest candidate set (last, and returned on its own). pnn is the
// subset /v1/pnn is asked: an exact PNN integrates every candidate over every
// subregion — 0.2 s a query at this set's mean — so it gets the dozen points
// with the fewest candidates, which still land on whatever a slot's scratch
// was last grown to by the C-PNNs around them.
func stratifiedPoints(t *testing.T, pdfs []pdf.PDF, domain float64, n int) (pts []float64, largest float64, pnn map[float64]bool) {
	t.Helper()
	ix, err := filter.NewIndex(uncertain.NewDataset(pdfs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	most := -1
	size := map[float64]int{}
	for i := 0; i < 4*n; i++ {
		q := 0.05*domain + (float64(i)+rng.Float64())*0.9*domain/float64(4*n)
		c := len(ix.Candidates(q).IDs)
		if i%4 == 0 {
			pts = append(pts, q)
			size[q] = c
		}
		if c > most {
			largest, most = q, c
		}
	}
	bySize := slices.Clone(pts)
	slices.SortStableFunc(bySize, func(a, b float64) int { return size[a] - size[b] })
	pnn = map[float64]bool{}
	for _, q := range bySize[:12] {
		pnn[q] = true
	}
	t.Logf("%d points; largest candidate set %d at q=%g", len(pts)+1, most, largest)
	return append(pts, largest), largest, pnn
}

func qParam(q float64) string { return strconv.FormatFloat(q, 'g', -1, 64) }

// scratchlessBodies renders, for every point, the /v1/cpnn body (and for
// the points of pnnPts the /v1/pnn body) from the server's own view through
// the payload builders with no scratch: Engine.CPNN and Engine.PNN exactly as
// the handlers called them before a slot carried one.
func scratchlessBodies(t *testing.T, s *Server, pts []float64, pnnPts map[float64]bool) (cpnn, pnn map[float64][]byte) {
	t.Helper()
	v, err := s.be.admit()
	if err != nil {
		t.Fatal(err)
	}
	cpnn, pnn = map[float64][]byte{}, map[float64][]byte{}
	for _, q := range pts {
		snap, _, err := v.snapshot(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cpnn[q], _, err = cpnnPayload(snap, q, scratchConstraint, core.VR, false, nil); err != nil {
			t.Fatal(err)
		}
		if pnnPts[q] {
			if pnn[q], _, err = pnnPayload(snap, q, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cpnn, pnn
}

// serveAndCompare sends every point of order to /v1/cpnn, the points that
// have a reference to /v1/pnn, and the whole order as one /v1/batch, and
// reports any body that is not byte-equal to its scratchless reference.
// It is safe to call from several goroutines.
func serveAndCompare(t *testing.T, s *Server, order []float64, cpnn, pnn map[float64][]byte) {
	check := func(what string, q float64, got, want []byte) {
		if !bytes.Equal(got, want) {
			t.Errorf("%s q=%g: served body differs from the scratchless evaluation\n got %s\nwant %s", what, q, got, want)
		}
	}
	for _, q := range order {
		rec := get(t, s, "/v1/cpnn?q="+qParam(q))
		if rec.Code != http.StatusOK {
			t.Errorf("cpnn q=%g: status %d: %s", q, rec.Code, rec.Body)
			continue
		}
		check("cpnn", q, rec.Body.Bytes(), cpnn[q])
		if want, ok := pnn[q]; ok {
			rec := get(t, s, "/v1/pnn?q="+qParam(q))
			if rec.Code != http.StatusOK {
				t.Errorf("pnn q=%g: status %d: %s", q, rec.Code, rec.Body)
				continue
			}
			check("pnn", q, rec.Body.Bytes(), want)
		}
	}
	qs := make([]string, len(order))
	for i, q := range order {
		qs[i] = qParam(q)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`{"queries":[`+strings.Join(qs, ",")+`]}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil || len(env.Results) != len(order) {
		t.Errorf("batch: status %d, %d results for %d points", rec.Code, len(env.Results), len(order))
		return
	}
	for i, q := range order {
		check("batch point", q, env.Results[i], cpnn[q])
	}
}

// TestServedBodiesUnchangedByScratch: a worker slot's reused scratch changes
// no served byte. Over 500 stratified points of a Long Beach slice plus its
// largest-candidate-set point, /v1/cpnn, every /v1/batch point and /v1/pnn
// answer exactly what the payload builders render from a scratchless
// Engine.CPNN / Engine.PNN — on the local backend and on a 4-shard router,
// at MaxInFlight 1, 2 and 4, in ascending, shuffled and largest-first order
// by one client and then split across 8 concurrent ones. The result cache
// stores nothing, so every request is an evaluation on a slot's scratch.
func TestServedBodiesUnchangedByScratch(t *testing.T) {
	pdfs, opt := longBeachSlice(t, 6000)
	pts, largest, pnnPts := stratifiedPoints(t, pdfs, opt.Domain, 500)

	shuffled := slices.Clone(pts)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	largestFirst := append([]float64{largest}, pts[:len(pts)-1]...)
	orders := map[int][]float64{1: pts, 2: shuffled, 4: largestFirst}

	_, rt := clusterOver(t, pdfs, 4)
	backends := []struct {
		name string
		over func(cfg Config) Config
	}{
		{"local", func(cfg Config) Config { cfg.Dataset = uncertain.NewDataset(pdfs); return cfg }},
		{"router", func(cfg Config) Config { cfg.ShardRouter = rt; return cfg }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			var cpnn, pnn map[float64][]byte
			for _, inflight := range []int{1, 2, 4} {
				s, err := New(b.over(Config{MaxInFlight: inflight, CacheEntries: -1, QueueTimeout: -1}))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if cpnn == nil {
					// Every server of one backend serves the same data at the
					// same version, so one set of references does for all.
					cpnn, pnn = scratchlessBodies(t, s, pts, pnnPts)
				}
				serveAndCompare(t, s, orders[inflight], cpnn, pnn)

				const clients = 8
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						var mine []float64
						for i := c; i < len(shuffled); i += clients {
							mine = append(mine, shuffled[i])
						}
						serveAndCompare(t, s, mine, cpnn, pnn)
					}(c)
				}
				wg.Wait()

				if n := len(s.slots.idle); n < 1 || n > inflight {
					t.Errorf("MaxInFlight %d: %d scratches parked, want 1..%d", inflight, n, inflight)
				}
				for _, sc := range s.slots.idle {
					if b := sc.MemBytes(); b > slotScratchCap {
						t.Errorf("MaxInFlight %d: a parked scratch retains %d bytes, over the %d cap", inflight, b, slotScratchCap)
					}
				}
			}
		})
	}
}

// TestSlotScratchRetentionCapped pins the two properties the slot pool's
// memory bound rests on. A query whose table outgrows slotScratchCap leaves
// nothing parked: its scratch is dropped, not kept at that size. And slots
// are handed out last-in-first-out: a single client, however many requests
// it sends, warms exactly one scratch while the other slots stay empty.
func TestSlotScratchRetentionCapped(t *testing.T) {
	// 300 staggered intervals over one stretch: a query in the middle keeps
	// them all as candidates with ≈600 distinct end-points, a table of
	// ≈300×600 cells × 24 B ≈ 4 MB. The sparse tail holds ordinary queries.
	var pdfs []pdf.PDF
	for i := 0; i < 300; i++ {
		pdfs = append(pdfs, pdf.MustUniform(1000+0.01*float64(i), 1040+0.013*float64(i)))
	}
	for i := 0; i < 400; i++ {
		pdfs = append(pdfs, pdf.MustUniform(2000+10*float64(i), 2025+10*float64(i)))
	}
	s := testServer(t, Config{Dataset: uncertain.NewDataset(pdfs), MaxInFlight: 4, CacheEntries: -1})

	serve := func(q float64) {
		t.Helper()
		if rec := get(t, s, "/v1/cpnn?q="+qParam(q)); rec.Code != http.StatusOK {
			t.Fatalf("q=%g: status %d: %s", q, rec.Code, rec.Body)
		}
	}
	serve(1020)
	big := core.NewScratch()
	res, err := s.Snapshot().Engine.CPNNScratch(1020, scratchConstraint, core.Options{}, big)
	if err != nil {
		t.Fatal(err)
	}
	if big.MemBytes() <= slotScratchCap {
		t.Fatalf("the large query (%d candidates × %d subregions) retains only %d bytes; the fixture must exceed the %d cap",
			res.Stats.Candidates, res.Stats.Subregions, big.MemBytes(), slotScratchCap)
	}
	if n := len(s.slots.idle); n != 0 {
		t.Fatalf("%d scratches parked after a query over the cap, want none", n)
	}

	for i := 0; i < 1000; i++ {
		if i%250 == 100 {
			serve(1020) // an occasional large query costs the warm scratch, nothing more
		}
		serve(2010 + 3.7*float64(i))
	}
	warm := 0
	for _, sc := range s.slots.idle {
		b := sc.MemBytes()
		if b > slotScratchCap {
			t.Errorf("a parked scratch retains %d bytes, over the %d cap", b, slotScratchCap)
		}
		if b > 0 {
			warm++
		}
	}
	if warm != 1 {
		t.Fatalf("%d warm scratches parked after 1,000 single-client requests (%d parked in all), want exactly 1",
			warm, len(s.slots.idle))
	}
}
