package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Source reports how a cached evaluation was satisfied.
type Source int

const (
	// Miss means this request ran the evaluation itself.
	Miss Source = iota
	// Hit means the result was served from the cache.
	Hit
	// Shared means the request piggybacked on an identical in-flight
	// evaluation (singleflight collapsing).
	Shared
)

// String implements fmt.Stringer; the values double as X-Cache header values.
func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// cache is a sharded LRU of marshaled query results with singleflight
// collapsing: concurrent requests for the same key run one evaluation and
// share its outcome. Sharding keeps lock contention off the serving hot path;
// keys embed the dataset snapshot version, so entries from a superseded
// snapshot can never be served (Purge merely reclaims their memory early).
type cache struct {
	shards []*cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int // per-shard entry capacity; 0 disables storage, not collapsing
	ll    *list.List
	items map[string]*list.Element
	calls map[string]*flightCall
}

type cacheEntry struct {
	key string
	val []byte
}

// flightCall is one in-flight evaluation; waiters block on done.
type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// newCache builds a cache holding at most entries results across shards.
// entries <= 0 disables result storage; singleflight collapsing stays active.
func newCache(entries, shards int) *cache {
	if shards < 1 {
		shards = 1
	}
	perShard := 0
	if entries > 0 {
		perShard = (entries + shards - 1) / shards
	}
	c := &cache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			ll:    list.New(),
			items: make(map[string]*list.Element),
			calls: make(map[string]*flightCall),
		}
	}
	return c
}

// fnv32a is hash/fnv's 32-bit FNV-1a without the hasher's allocation; it
// picks a key's shard.
func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// Do returns the cached value for kb, or runs fn exactly once across all
// concurrent callers of the same key and caches its result. Waiters abandon
// the flight when ctx is canceled; the leader always completes so the result
// is not lost for the callers still waiting. kb may be the caller's scratch:
// a hit only looks it up, and a miss stores its own copy.
func (c *cache) Do(ctx context.Context, kb []byte, fn func() ([]byte, error)) ([]byte, Source, error) {
	sh := c.shards[int(fnv32a(kb))%len(c.shards)]

	sh.mu.Lock()
	if el, ok := sh.items[string(kb)]; ok {
		sh.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		sh.mu.Unlock()
		c.hits.Add(1)
		return val, Hit, nil
	}
	if fl, ok := sh.calls[string(kb)]; ok {
		sh.mu.Unlock()
		select {
		case <-fl.done:
			c.shared.Add(1)
			return fl.val, Shared, fl.err
		case <-ctx.Done():
			return nil, Shared, ctx.Err()
		}
	}
	key := string(kb)
	fl := &flightCall{done: make(chan struct{})}
	sh.calls[key] = fl
	sh.mu.Unlock()

	fl.val, fl.err = fn()

	sh.mu.Lock()
	delete(sh.calls, key)
	if fl.err == nil && sh.cap > 0 {
		sh.items[key] = sh.ll.PushFront(&cacheEntry{key: key, val: fl.val})
		for sh.ll.Len() > sh.cap {
			oldest := sh.ll.Back()
			sh.ll.Remove(oldest)
			delete(sh.items, oldest.Value.(*cacheEntry).key)
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	close(fl.done)

	c.misses.Add(1)
	return fl.val, Miss, fl.err
}

// Purge drops every stored entry. In-flight calls are left to complete: their
// keys carry the snapshot version they were computed against, so their
// waiters still receive a result consistent with the snapshot they requested,
// and the stored leftovers can never match a request against a newer
// snapshot.
func (c *cache) Purge() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.ll.Init()
		sh.items = make(map[string]*list.Element)
		sh.mu.Unlock()
	}
}

// Len returns the number of stored entries across shards.
func (c *cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}
