package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/uncertain"
)

// benchServer builds a serving stack over a paper-scale-ish dataset once per
// benchmark run.
func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
		N:            20000,
		Domain:       10000,
		MeanLen:      13,
		MinLen:       0.5,
		MaxLen:       120,
		Clusters:     60,
		ClusterFrac:  0.97,
		ClusterSigma: 10,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Dataset = ds
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchGet(b *testing.B, s *Server, url string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
	}
}

// BenchmarkServerCPNN measures concurrent serving throughput end to end
// (HTTP handler, cache, worker pool, engine), the quantity the bench
// trajectory needs now that the repo serves queries rather than evaluating
// them one process-lifetime at a time.
//
//	cold  — every request is a distinct query point: all cache misses, all
//	        engine evaluations (upper bound on per-query serving cost).
//	warm  — requests cycle a small working set: steady-state cache hits
//	        (upper bound on cache-path throughput).
func BenchmarkServerCPNN(b *testing.B) {
	queries := uncertain.QueryWorkload(4096, 10000, 9)

	b.Run("cold", func(b *testing.B) {
		s := benchServer(b, Config{CacheEntries: -1})
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// A fresh point each iteration: misses by construction.
				i := next.Add(1)
				q := float64(i)*1e-3 + queries[int(i)%len(queries)]
				benchGet(b, s, fmt.Sprintf("/v1/cpnn?q=%g&p=0.3&delta=0.01", q))
			}
		})
	})

	b.Run("warm", func(b *testing.B) {
		s := benchServer(b, Config{})
		// Pre-warm a small working set, then serve it from cache.
		for i := 0; i < 32; i++ {
			benchGet(b, s, fmt.Sprintf("/v1/cpnn?q=%g&p=0.3&delta=0.01", queries[i]))
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1)) % 32
				benchGet(b, s, fmt.Sprintf("/v1/cpnn?q=%g&p=0.3&delta=0.01", queries[i]))
			}
		})
	})
}

// BenchmarkServerBatch measures POST /v1/batch end to end with all-distinct
// (cold) points, at a fixed batch size per request.
func BenchmarkServerBatch(b *testing.B) {
	queries := uncertain.QueryWorkload(4096, 10000, 9)
	s := benchServer(b, Config{CacheEntries: -1})
	const size = 64
	var next atomic.Int64
	body := func() []byte {
		var buf []byte
		buf = append(buf, `{"queries":[`...)
		for i := 0; i < size; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			q := queries[int(next.Add(1))%len(queries)]
			buf = append(buf, fmt.Sprintf("%g", q)...)
		}
		buf = append(buf, `]}`...)
		return buf
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body()))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkCacheHit serves one warmed /v1/cpnn request into a reused
// writer: the result-cache hit path alone, from the ingress middleware to
// the body write.
func BenchmarkCacheHit(b *testing.B) {
	s := benchServer(b, Config{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/cpnn?q=5000&p=0.3&delta=0.01", nil)
	w := &hitWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.h.Get("X-Cache") != "hit" {
		b.Fatalf("X-Cache = %q, want hit", w.h.Get("X-Cache"))
	}
}
