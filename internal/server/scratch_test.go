package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

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
// subset /v1/pnn is asked: every 4th stratified point and the largest one,
// which still land on whatever pooled scratch the C-PNNs around them last
// grew. Asking every point would add little but time: under -race on a
// 2-core Xeon the test takes 45 s this way and 85 s with every point.
func stratifiedPoints(t *testing.T, pdfs []pdf.PDF, domain float64, n int) (pts []float64, largest float64, pnn map[float64]bool) {
	t.Helper()
	ix, err := filter.NewIndex(uncertain.NewDataset(pdfs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	most := -1
	pnn = map[float64]bool{}
	for i := 0; i < 4*n; i++ {
		q := 0.05*domain + (float64(i)+rng.Float64())*0.9*domain/float64(4*n)
		if c := len(ix.Candidates(q).IDs); c > most {
			largest, most = q, c
		}
		if i%4 == 0 {
			if len(pts)%4 == 0 {
				pnn[q] = true
			}
			pts = append(pts, q)
		}
	}
	pnn[largest] = true
	t.Logf("%d points, %d asked /v1/pnn; largest candidate set %d at q=%g", len(pts)+1, len(pnn), most, largest)
	return append(pts, largest), largest, pnn
}

func qParam(q float64) string { return strconv.FormatFloat(q, 'g', -1, 64) }

// referenceBodies asks s, one request at a time in the order of pts, for
// every point's /v1/cpnn body and for the /v1/pnn body of the points of
// pnnPts.
func referenceBodies(t *testing.T, s *Server, pts []float64, pnnPts map[float64]bool) (cpnn, pnn map[float64][]byte) {
	t.Helper()
	cpnn, pnn = map[float64][]byte{}, map[float64][]byte{}
	body := func(path string) []byte {
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, q := range pts {
		cpnn[q] = body("/v1/cpnn?q=" + qParam(q))
		if pnnPts[q] {
			pnn[q] = body("/v1/pnn?q=" + qParam(q))
		}
	}
	return cpnn, pnn
}

// serveAndCompare sends every point of order to /v1/cpnn, the points that
// have a reference to /v1/pnn, and the whole order as one /v1/batch, and
// reports any body that is not byte-equal to its reference.
// It is safe to call from several goroutines.
func serveAndCompare(t *testing.T, s *Server, order []float64, cpnn, pnn map[float64][]byte) {
	check := func(what string, q float64, got, want []byte) {
		if !bytes.Equal(got, want) {
			t.Errorf("%s q=%g: served body differs from the reference server's\n got %s\nwant %s", what, q, got, want)
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

// TestServedBodiesUnchangedByScratch: the pooled scratch an evaluation
// borrows, whatever queries it served before, changes no served byte. Over
// 500 stratified points of a Long Beach slice plus its largest-candidate-set
// point, /v1/cpnn, every /v1/batch point and /v1/pnn (at every 4th point and
// the largest) answer exactly what a second server over the same data
// rendered one request at a time in
// ascending order — on the local backend and on a 4-shard router, at
// MaxInFlight 1, 2 and 4, in ascending, shuffled and largest-first order by
// one client and then split across 8 concurrent ones. The result cache
// stores nothing, so every request is an evaluation.
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
			newServer := func(inflight int) *Server {
				s, err := New(b.over(Config{MaxInFlight: inflight, CacheEntries: -1, QueueTimeout: -1}))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			// Every server of one backend serves the same data at the same
			// version, so one set of references does for all.
			cpnn, pnn := referenceBodies(t, newServer(1), pts, pnnPts)
			for _, inflight := range []int{1, 2, 4} {
				s := newServer(inflight)
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
			}
		})
	}
}
