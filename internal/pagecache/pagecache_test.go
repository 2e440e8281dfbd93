package pagecache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

func newTestPool(t *testing.T, budget int64) (*Pool, *pager.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := pager.Create(path)
	if err != nil {
		t.Fatalf("create pager: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return NewPool(f, budget), f, path
}

func TestPoolRoundTripAndStats(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget)

	// Allocate a page, write a payload, flush, drop from cache, fault back.
	h, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	id := h.ID()
	copy(h.Data(), []byte("hello pagecache"))
	h.MarkDirty()
	h.Release()
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// A fresh pool must fault the page from disk and verify the checksum.
	p2 := NewPool(f, MinBudget)
	h2, err := p2.Fetch(id)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got := string(h2.Data()[:15]); got != "hello pagecache" {
		t.Fatalf("payload = %q", got)
	}
	h2.Release()

	st := p2.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after cold fetch = %+v", st)
	}
	if h3, err := p2.Fetch(id); err != nil {
		t.Fatalf("refetch: %v", err)
	} else {
		h3.Release()
	}
	st = p2.Stats()
	if st.Hits != 1 {
		t.Fatalf("stats after warm fetch = %+v", st)
	}
	if st.BudgetBytes != MinBudget {
		t.Fatalf("budget = %d, want %d", st.BudgetBytes, MinBudget)
	}
}

func TestPoolEvictionUnderBudget(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget) // 8 frames

	// Fill well past the budget; every page must still read back correctly.
	const pages = 40
	ids := make([]pager.PageID, pages)
	for i := 0; i < pages; i++ {
		h, err := p.Allocate()
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		ids[i] = h.ID()
		binary.LittleEndian.PutUint64(h.Data(), uint64(i)*7919)
		h.MarkDirty()
		h.Release()
	}
	st := p.Stats()
	if st.ResidentPages > 8 {
		t.Fatalf("resident = %d, budget is 8 frames", st.ResidentPages)
	}
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected evictions and writebacks, got %+v", st)
	}
	for i, id := range ids {
		h, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(h.Data()); got != uint64(i)*7919 {
			t.Fatalf("page %d payload = %d, want %d", id, got, uint64(i)*7919)
		}
		h.Release()
	}
}

// TestPoolMissReusesEvictedFrame: once the pool is full, a miss takes over
// the CLOCK victim's frame — buffer and ring slot — so a fault allocates the
// Handle and nothing else, and Allocate hands out the recycled buffer zeroed.
func TestPoolMissReusesEvictedFrame(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget) // 8 frames
	const pages, runs = 3 * MinBudget / pager.PageSize, 200
	ids := make([]pager.PageID, pages)
	for i := range ids {
		h, err := p.Allocate()
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		ids[i] = h.ID()
		binary.LittleEndian.PutUint64(h.Data(), uint64(i)+1)
		h.MarkDirty()
		h.Release()
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// A cyclic scan over three times the budget misses on every fetch.
	before, next := p.Stats(), 0
	allocs := testing.AllocsPerRun(runs, func() {
		i := next % pages
		next++
		h, err := p.Fetch(ids[i])
		if err != nil {
			t.Fatalf("fetch %d: %v", ids[i], err)
		}
		if got := binary.LittleEndian.Uint64(h.Data()); got != uint64(i)+1 {
			t.Fatalf("page %d payload = %d, want %d", ids[i], got, i+1)
		}
		h.Release()
	})
	st := p.Stats()
	if misses := st.Misses - before.Misses; misses != uint64(next) || st.Hits != before.Hits {
		t.Fatalf("cyclic scan of %d pages over 8 frames: %d misses, %d hits in %d fetches",
			pages, misses, st.Hits-before.Hits, next)
	}
	if allocs > 1 {
		t.Fatalf("a miss allocates %.0f objects, want at most 1 (the Handle)", allocs)
	}

	h, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	defer h.Release()
	for i, b := range h.Data() {
		if b != 0 {
			t.Fatalf("allocated page %d over a recycled frame: byte %d = %#x, want 0", h.ID(), i, b)
		}
	}
}

func TestPoolPinnedPagesSurviveEviction(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget)

	pinned, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	copy(pinned.Data(), []byte("pinned"))
	pinned.MarkDirty()

	for i := 0; i < 30; i++ {
		h, err := p.Allocate()
		if err != nil {
			t.Fatalf("allocate filler: %v", err)
		}
		h.MarkDirty()
		h.Release()
	}
	if got := string(pinned.Data()[:6]); got != "pinned" {
		t.Fatalf("pinned payload = %q", got)
	}
	pinned.Release()
}

func TestFetchChecksumMismatchNamesPageAndOffset(t *testing.T) {
	p, f, path := newTestPool(t, MinBudget)

	h, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	id := h.ID()
	copy(h.Data(), []byte("soon to be corrupted"))
	h.MarkDirty()
	h.Release()
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// Flip a payload byte on disk behind the pool's back.
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	off := int64(id)*pager.PageSize + 100
	if _, err := raw.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	raw.Close()

	_, err = NewPool(f, MinBudget).Fetch(id)
	if err == nil {
		t.Fatal("fetch of corrupted page succeeded")
	}
	wantPage := fmt.Sprintf("page %d", id)
	wantOff := fmt.Sprintf("byte offset %d", int64(id)*pager.PageSize)
	if !strings.Contains(err.Error(), wantPage) || !strings.Contains(err.Error(), wantOff) {
		t.Fatalf("error %q does not name %q and %q", err, wantPage, wantOff)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %q does not say checksum mismatch", err)
	}
}

func TestLogRoundTripIncludingMultiPageRecords(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget)

	w := NewWriter(p, 0)
	rng := rand.New(rand.NewSource(42))
	var recs [][]byte
	var refs []int64
	// Mix of tiny records and records spanning several pages.
	sizes := []int{0, 1, 17, 4000, PayloadSize, PayloadSize + 1, 3*PayloadSize + 5, 9, 12345}
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		ref, err := w.Append(data)
		if err != nil {
			t.Fatalf("append %d bytes: %v", n, err)
		}
		recs = append(recs, data)
		refs = append(refs, ref)
	}
	size := w.Finish()
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Read through a tighter pool to force faulting.
	log := NewLog(p, 0, size)
	for i, ref := range refs {
		got, err := log.ReadRecord(ref)
		if err != nil {
			t.Fatalf("read record %d: %v", i, err)
		}
		if string(got) != string(recs[i]) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(recs[i]))
		}
	}

	// Out-of-bounds reference must fail loudly, not read garbage.
	if _, err := log.ReadRecord(size - 1); err == nil {
		t.Fatal("read past stream end succeeded")
	}
	if _, err := log.ReadRecord(-4); err == nil {
		t.Fatal("negative ref succeeded")
	}
}

// TestReadRecordPinsEachPageOnce: a record within one page costs exactly one
// Fetch — the length prefix and the body come from the same pin — and a
// record whose prefix straddles a page boundary still reads back whole.
func TestReadRecordPinsEachPageOnce(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget)
	w := NewWriter(p, 0)
	small := []byte("one page")
	ref, err := w.Append(small)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first page to 2 bytes short of its end, so the next prefix
	// straddles the boundary.
	if _, err := w.Append(make([]byte, PayloadSize-2-4-(4+len(small)))); err != nil {
		t.Fatal(err)
	}
	straddle := []byte("prefix split across pages")
	sref, err := w.Append(straddle)
	if err != nil {
		t.Fatal(err)
	}
	if sref != PayloadSize-2 {
		t.Fatalf("straddling record at %d, want %d", sref, PayloadSize-2)
	}
	log := NewLog(p, 0, w.Finish())

	before := p.Stats()
	got, err := log.ReadRecord(ref)
	if err != nil || string(got) != string(small) {
		t.Fatalf("ReadRecord = %q, %v; want %q", got, err, small)
	}
	st := p.Stats()
	if fetches := st.Hits + st.Misses - before.Hits - before.Misses; fetches != 1 {
		t.Fatalf("one-page record cost %d fetches, want 1", fetches)
	}
	if got, err := log.ReadRecord(sref); err != nil || string(got) != string(straddle) {
		t.Fatalf("straddling ReadRecord = %q, %v; want %q", got, err, straddle)
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	rects := []geom.Rect{
		{MinX: -1.5, MinY: 0, MaxX: 2.25, MaxY: 0},
		{MinX: 3, MinY: 0, MaxX: 7, MaxY: 0},
	}
	vals := []int64{11, -9}
	for _, leaf := range []bool{true, false} {
		b := AppendNode(nil, leaf, rects, vals)
		n, err := DecodeNode(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n.Leaf != leaf || len(n.Rects) != 2 || n.Rects[1] != rects[1] {
			t.Fatalf("decoded %+v", n)
		}
		got := n.Items
		if !leaf {
			got = n.Children
		}
		if got[0] != 11 || got[1] != -9 {
			t.Fatalf("values = %v", got)
		}
	}
	if _, err := DecodeNode([]byte{1, 2}); err == nil {
		t.Fatal("short record decoded")
	}
	if _, err := DecodeNode(append([]byte{1, 1, 0, 0, 0}, make([]byte, 3)...)); err == nil {
		t.Fatal("truncated entries decoded")
	}
}
