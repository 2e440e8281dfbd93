// Package pagecache is the buffer-pool layer between the store and the 4 KiB
// pager: a concurrency-safe, read-only page cache with a configurable byte
// budget, CLOCK eviction and pinned page handles, plus an append-only record
// log (its extent writer and read-ahead scanner) and the R-tree node record
// codec built on top of it.
//
// Every page carries a CRC-32C of its payload in its first four bytes, so a
// torn or bit-rotted page is detected at fault time with its page number and
// byte offset — the page-granular analogue of the WAL's record checksums.
// The store's paged checkpoints write object records and index nodes with a
// Writer, which streams whole extents to the file and warms the pool with
// what it wrote, and serve queries from datasets larger than memory by
// faulting pages back through the pool on demand.
package pagecache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/pager"
)

// PayloadSize is the number of usable bytes per page: the page minus the
// leading CRC-32C.
const PayloadSize = pager.PageSize - 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MinBudget is the smallest accepted pool budget: enough pages that a single
// record spanning a handful of pages can be walked while older pages stay
// resident.
const MinBudget = 8 * pager.PageSize

// Stats counts pool activity. Hits and Misses count Fetch calls served from
// memory versus from disk; Evictions counts frames recycled under budget
// pressure, which only faults do; Writebacks counts the pages a Writer wrote
// to the pool's file. ResidentPages and BudgetBytes describe the current
// footprint.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
	ResidentPages                       int
	BudgetBytes                         int64
}

// Pool caches pages of a pager.File under a byte budget with CLOCK eviction.
// It is safe for concurrent use; readers pin pages through Handles while
// decoding and release them immediately after. A pool never writes: its
// frames are always the pages' bytes on disk.
type Pool struct {
	mu     sync.Mutex
	f      *pager.File
	budget int // max resident frames
	frames map[pager.PageID]*frame
	clock  []*frame // eviction ring; hand sweeps it
	hand   int
	stats  Stats
}

type frame struct {
	id   pager.PageID
	data [pager.PageSize]byte
	pins int
	ref  bool // CLOCK reference bit
}

// NewPool wraps f with a pool holding at most budgetBytes of pages.
// Budgets below MinBudget are raised to it.
func NewPool(f *pager.File, budgetBytes int64) *Pool {
	if budgetBytes < MinBudget {
		budgetBytes = MinBudget
	}
	return &Pool{
		f:      f,
		budget: int(budgetBytes / pager.PageSize),
		frames: map[pager.PageID]*frame{},
	}
}

// Handle is a pinned page. Its payload stays valid (and its frame resident)
// until Release.
type Handle struct {
	p  *Pool
	fr *frame
}

// Data returns the page payload (PayloadSize bytes, excluding the CRC). It
// is read-only.
func (h Handle) Data() []byte { return h.fr.data[4:] }

// ID returns the page number.
func (h Handle) ID() pager.PageID { return h.fr.id }

// Release unpins the page. The Handle must not be used afterwards.
func (h Handle) Release() {
	h.p.mu.Lock()
	if h.fr.pins > 0 {
		h.fr.pins--
	}
	h.p.mu.Unlock()
}

// Fetch pins page id, faulting it from disk (and verifying its checksum) on
// a miss.
func (p *Pool) Fetch(id pager.PageID) (Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok {
		p.stats.Hits++
		fr.pins++
		fr.ref = true
		return Handle{p: p, fr: fr}, nil
	}
	p.stats.Misses++
	fr, err := p.newFrameLocked(id)
	if err != nil {
		return Handle{}, err
	}
	if err := p.f.ReadPage(id, fr.data[:]); err != nil {
		p.dropLocked(fr)
		return Handle{}, err
	}
	if err := checkPage(id, fr.data[:]); err != nil {
		p.dropLocked(fr)
		return Handle{}, err
	}
	fr.pins, fr.ref = 1, true
	return Handle{p: p, fr: fr}, nil
}

// checkPage verifies a page's stored CRC-32C against its payload.
func checkPage(id pager.PageID, page []byte) error {
	want := binary.LittleEndian.Uint32(page[:4])
	if got := crc32.Checksum(page[4:], crcTable); got != want {
		return fmt.Errorf(
			"pagecache: page %d (byte offset %d): checksum mismatch (stored %08x, computed %08x)",
			id, int64(id)*pager.PageSize, want, got)
	}
	return nil
}

// install records an extent a Writer has just written to the pool's file
// starting at page first, and caches its pages as clean frames while the
// pool is under budget. It never evicts: a flatten leaves the pool as warm
// as its budget, not churned by every page it wrote. A page already cached
// takes the new bytes in its frame: an append that failed before its header
// was written left pages past the stream no reader can reach, and the next
// append writes them again.
func (p *Pool) install(first pager.PageID, extent []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for o := 0; o < len(extent); o += pager.PageSize {
		p.stats.Writebacks++
		id := first + pager.PageID(o/pager.PageSize)
		if fr, ok := p.frames[id]; ok {
			copy(fr.data[:], extent[o:])
			continue
		}
		if len(p.frames) >= p.budget {
			continue
		}
		fr := &frame{id: id, ref: true}
		copy(fr.data[:], extent[o:])
		p.clock = append(p.clock, fr)
		p.frames[id] = fr
	}
}

// newFrameLocked maps id to a frame: a new one while the pool is under
// budget, else the CLOCK victim, reused in place with its buffer and ring
// slot. The caller fills the buffer.
func (p *Pool) newFrameLocked(id pager.PageID) (*frame, error) {
	var fr *frame
	if len(p.frames) < p.budget {
		fr = &frame{}
		p.clock = append(p.clock, fr)
	} else {
		var err error
		if fr, err = p.evictLocked(); err != nil {
			return nil, err
		}
	}
	fr.id, fr.pins, fr.ref = id, 0, false
	p.frames[id] = fr
	return fr, nil
}

// evictLocked runs the CLOCK hand: pinned frames are skipped, referenced
// frames get a second chance, and the first cold unpinned frame is unmapped
// and returned for reuse; the hand moves past it.
func (p *Pool) evictLocked() (*frame, error) {
	if len(p.clock) == 0 {
		return nil, fmt.Errorf("pagecache: empty pool cannot evict")
	}
	// Two full sweeps: the first clears reference bits, the second must find
	// a victim unless every frame is pinned.
	for sweep := 0; sweep < 2*len(p.clock); sweep++ {
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		fr := p.clock[p.hand]
		if fr.pins > 0 {
			p.hand++
			continue
		}
		if fr.ref {
			fr.ref = false
			p.hand++
			continue
		}
		delete(p.frames, fr.id)
		p.hand++
		p.stats.Evictions++
		return fr, nil
	}
	return nil, fmt.Errorf("pagecache: all %d pages pinned; cannot evict", len(p.clock))
}

// dropLocked discards a frame whose fault failed.
func (p *Pool) dropLocked(fr *frame) {
	delete(p.frames, fr.id)
	for i, c := range p.clock {
		if c == fr {
			p.clock = append(p.clock[:i], p.clock[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			break
		}
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.ResidentPages = len(p.frames)
	s.BudgetBytes = int64(p.budget) * pager.PageSize
	return s
}
