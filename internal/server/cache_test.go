package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := newCache(8, 2)
	calls := 0
	fn := func() ([]byte, error) { calls++; return []byte("v"), nil }

	v, src, err := c.Do(context.Background(), []byte("k"), fn)
	if err != nil || string(v) != "v" || src != Miss {
		t.Fatalf("first Do = %q, %v, %v", v, src, err)
	}
	v, src, err = c.Do(context.Background(), []byte("k"), fn)
	if err != nil || string(v) != "v" || src != Hit {
		t.Fatalf("second Do = %q, %v, %v", v, src, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if got := c.hits.Load(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
}

func TestCacheErrorNotStored(t *testing.T) {
	c := newCache(8, 1)
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do(context.Background(), []byte("k"), func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("Do error = %v, want boom", err)
	}
	ran := false
	if _, src, err := c.Do(context.Background(), []byte("k"), func() ([]byte, error) { ran = true; return []byte("ok"), nil }); err != nil || src != Miss {
		t.Fatalf("Do after error = %v, %v", src, err)
	}
	if !ran {
		t.Error("failed result was cached")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, 1) // one shard, two entries
	mk := func(k string) {
		c.Do(context.Background(), []byte(k), func() ([]byte, error) { return []byte(k), nil })
	}
	mk("a")
	mk("b")
	mk("a") // refresh a; b is now LRU
	mk("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, src, _ := c.Do(context.Background(), []byte("a"), func() ([]byte, error) { return []byte("a"), nil }); src != Hit {
		t.Errorf("a evicted, want it kept")
	}
	if _, src, _ := c.Do(context.Background(), []byte("b"), func() ([]byte, error) { return []byte("b"), nil }); src != Miss {
		t.Errorf("b kept, want it evicted")
	}
	if c.evictions.Load() == 0 {
		t.Error("no evictions counted")
	}
}

func TestCacheDisabledStillCollapses(t *testing.T) {
	c := newCache(-1, 4)
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	shared := atomic.Int64{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, src, err := c.Do(context.Background(), []byte("k"), func() ([]byte, error) {
				calls.Add(1)
				<-gate
				return []byte("v"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if src == Shared {
				shared.Add(1)
			}
		}()
	}
	// Let the waiters pile onto the single flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1 (singleflight)", got)
	}
	if shared.Load() != 7 {
		t.Errorf("shared = %d, want 7", shared.Load())
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache stored %d entries", c.Len())
	}
	// Nothing stored: the next call runs fn again.
	if _, src, _ := c.Do(context.Background(), []byte("k"), func() ([]byte, error) { return []byte("v"), nil }); src != Miss {
		t.Errorf("disabled cache served a %v", src)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newCache(8, 1)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), []byte("k"), func() ([]byte, error) {
		close(started)
		<-gate
		return []byte("v"), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, []byte("k"), func() ([]byte, error) { return nil, nil }); err != context.Canceled {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestCachePurge(t *testing.T) {
	c := newCache(32, 4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(context.Background(), []byte(k), func() ([]byte, error) { return []byte(k), nil })
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d, want 0", c.Len())
	}
	if _, src, _ := c.Do(context.Background(), []byte("k3"), func() ([]byte, error) { return []byte("k3"), nil }); src != Miss {
		t.Errorf("purged key served a %v", src)
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := newCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%32)
				v, _, err := c.Do(context.Background(), []byte(k), func() ([]byte, error) { return []byte(k), nil })
				if err != nil {
					t.Errorf("Do(%s): %v", k, err)
					return
				}
				if string(v) != k {
					t.Errorf("Do(%s) = %q", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheKeyCopiedOnMiss: Do's key is the caller's reusable buffer, so
// the entry and flight it stores must hold their own copy of it.
func TestCacheKeyCopiedOnMiss(t *testing.T) {
	c := newCache(8, 1)
	buf := []byte("k1")
	c.Do(context.Background(), buf, func() ([]byte, error) { return []byte("v1"), nil })
	copy(buf, "k2") // the caller reuses its buffer for the next request
	if _, src, _ := c.Do(context.Background(), []byte("k1"), func() ([]byte, error) { return nil, nil }); src != Hit {
		t.Errorf("k1 after the caller's buffer changed: %v, want a hit", src)
	}
	if _, src, _ := c.Do(context.Background(), buf, func() ([]byte, error) { return []byte("v2"), nil }); src != Miss {
		t.Errorf("k2: %v, want a miss", src)
	}
}

// TestShardForMatchesFNV holds the cache's inline hash to hash/fnv's 32-bit
// FNV-1a, so every key lands in the shard it always has.
func TestShardForMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.IntN(200))
		for j := range key {
			key[j] = byte(rng.Uint32())
		}
		h := fnv.New32a()
		h.Write(key)
		if got, want := fnv32a(key), h.Sum32(); got != want {
			t.Fatalf("fnv32a(%q) = %#x, want %#x", key, got, want)
		}
	}
}

// hitWriter is a reusable ResponseWriter that keeps the last body written
// without copying it.
type hitWriter struct {
	h    http.Header
	body []byte
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) Write(p []byte) (int, error) { w.body = p; return len(p), nil }
func (w *hitWriter) WriteHeader(int)             {}

// TestCacheHitAllocs holds a result-cache hit of every cached endpoint to
// zero heap allocations through the whole handler: one scan of the raw
// query, a key built on the stack, one map lookup and preset header values.
// AllocsPerRun reports the integer mean over 1,000 hits, so one allocation
// on every hit reads 1; the 1-in-128 traced request (8 of the 1,000)
// allocates its span and reads 0 unless it allocates 125 times.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := testServer(t, Config{})
	h := s.Handler()
	for _, url := range []string{
		"/v1/cpnn?q=500&p=0.3&delta=0.01", // the serving bench's request
		"/v1/cpnn?q=500&p=0.2&delta=0.01&strategy=vr&all=1",
		"/v1/pnn?q=313.7",
		"/v1/knn?q=250&k=3&p=0.1",
	} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := &hitWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if got := w.h.Get("X-Cache"); got != "miss" {
			t.Fatalf("%s: warming X-Cache = %q, want miss", url, got)
		}
		want := w.body
		allocs := testing.AllocsPerRun(1000, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		if got := w.h.Get("X-Cache"); got != "hit" || w.h.Get("Content-Type") != "application/json" || !bytes.Equal(w.body, want) {
			t.Fatalf("%s: X-Cache %q, Content-Type %q, body equal %v; want a JSON hit of the warmed body",
				url, got, w.h.Get("Content-Type"), bytes.Equal(w.body, want))
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations a cache hit, want 0", url, allocs)
		}
	}
}
