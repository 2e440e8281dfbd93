package core

import (
	"sync"

	"repro/internal/filter"
	"repro/internal/pdf"
	"repro/internal/subregion"
)

// queryScratch is the evaluation scratch every query runs on, stateless or
// standing: the filter's hit list, candidate buffer, subregion table and
// fold arena are recycled across queries, eliminating the per-query matrix
// and filter allocations that would otherwise dominate a C-PNN call's
// allocation profile. Every query borrows one from scratchPool.
type queryScratch struct {
	hits  []filter.Hit
	cands []subregion.Candidate
	table subregion.Table
	arena pdf.Alloc
	// warmHits, warmCands and warmTable are the buffers the current query
	// found — what the last release left, within scratchCap — which release
	// restores should the query leave the scratch over scratchCap.
	warmHits  []filter.Hit
	warmCands []subregion.Candidate
	warmTable subregion.Table
}

// scratchCap bounds the memory an idle scratch retains. A scratch grows to
// the largest query it served: on the Long Beach workload the candidate set
// is |C| p50 58 / p95 247 / p99 346 / max 571, its table |C|×(M+1) = 1,564 /
// 14,550 / 28,080 / 61,978 cells of 24 B = 37 KB / 350 KB / 674 KB /
// 1.49 MB. 1 MiB keeps everything up to ≈p99.5 warm; a query past it runs
// on its scratch like any other and release hands the scratch back the
// buffers it had before that query, so only those queries allocate their
// table afresh and the warm scratch never has to regrow. A standing query's
// incremental evaluation rebuilds its table on a pooled scratch too, so the
// same cap bounds it.
const scratchCap = 1 << 20

// scratchPool holds the idle scratches of the stateless and the incremental
// entry points, each within scratchCap.
var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// borrow takes a scratch from the pool; park returns it.
func borrow() *queryScratch { return scratchPool.Get().(*queryScratch) }

// park releases the scratch and returns it to the pool.
func (sc *queryScratch) park() {
	sc.release()
	scratchPool.Put(sc)
}

// release readies the scratch to sit idle: it clears what the scratch still
// references of its last query — the candidate set's distance pdfs — and
// keeps every buffer's capacity for the next. A query that left the
// scratch over scratchCap keeps nothing it grew: the hit list, candidate
// buffer and table go back to the ones it found, which were within the cap, and the
// fold arena is dropped (it regrows in a few geometric steps). What is left
// is within the cap, so it is what the next query finds. Results never
// alias scratch memory (collect copies), so releasing after a query returns
// is safe.
func (sc *queryScratch) release() {
	clear(sc.cands[:cap(sc.cands)])
	sc.table.DropCandidates()
	sc.arena.Release()
	if sc.memBytes() > scratchCap {
		sc.hits, sc.cands, sc.table, sc.arena = sc.warmHits, sc.warmCands, sc.warmTable, pdf.Alloc{}
	}
	sc.warmHits, sc.warmCands, sc.warmTable = sc.hits, sc.cands, sc.table
}

// memBytes returns the approximate heap footprint the scratch retains
// between queries: subregion table, hit list, candidate buffer and fold
// arena.
func (sc *queryScratch) memBytes() int {
	return sc.table.MemBytes() + 24*cap(sc.hits) + 16*cap(sc.cands) + sc.arena.MemBytes()
}
