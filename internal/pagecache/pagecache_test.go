package pagecache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// writePages appends one CRC-stamped page per payload to f, laid out as a
// Writer lays its pages, and returns their IDs.
func writePages(t *testing.T, f *pager.File, payloads ...[]byte) []pager.PageID {
	t.Helper()
	ids := make([]pager.PageID, len(payloads))
	for i, b := range payloads {
		var page [pager.PageSize]byte
		copy(page[4:], b)
		binary.LittleEndian.PutUint32(page[:4], crc32.Checksum(page[4:], crcTable))
		ids[i] = pager.PageID(f.NumPages())
		if err := f.WriteExtent(ids[i], page[:]); err != nil {
			t.Fatalf("write page %d: %v", ids[i], err)
		}
	}
	return ids
}

// numbered returns n page payloads, payload i holding i*7919 + 1.
func numbered(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = binary.LittleEndian.AppendUint64(nil, uint64(i)*7919+1)
	}
	return out
}

func TestPoolRoundTripAndStats(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget)
	id := writePages(t, f, []byte("hello pagecache"))[0]

	// A cold pool must fault the page from disk and verify the checksum.
	h, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got := string(h.Data()[:15]); got != "hello pagecache" {
		t.Fatalf("payload = %q", got)
	}
	h.Release()

	st := p.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after cold fetch = %+v", st)
	}
	if h, err := p.Fetch(id); err != nil {
		t.Fatalf("refetch: %v", err)
	} else {
		h.Release()
	}
	st = p.Stats()
	if st.Hits != 1 || st.Writebacks != 0 {
		t.Fatalf("stats after warm fetch = %+v", st)
	}
	if st.BudgetBytes != MinBudget {
		t.Fatalf("budget = %d, want %d", st.BudgetBytes, MinBudget)
	}
}

func TestPoolEvictionUnderBudget(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget) // 8 frames

	// Fault well past the budget; every page must still read back correctly.
	ids := writePages(t, f, numbered(40)...)
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			h, err := p.Fetch(id)
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
			if got := binary.LittleEndian.Uint64(h.Data()); got != uint64(i)*7919+1 {
				t.Fatalf("page %d payload = %d, want %d", id, got, uint64(i)*7919+1)
			}
			h.Release()
		}
	}
	st := p.Stats()
	if st.ResidentPages > 8 {
		t.Fatalf("resident = %d, budget is 8 frames", st.ResidentPages)
	}
	if st.Evictions == 0 || st.Misses != 80 {
		t.Fatalf("two scans of 40 pages over 8 frames: %+v, want 80 misses and evictions", st)
	}
}

// TestPoolMissReusesEvictedFrame: once the pool is full, a miss takes over
// the CLOCK victim's frame — buffer and ring slot — and Fetch returns its
// Handle by value, so a fault allocates nothing.
func TestPoolMissReusesEvictedFrame(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget) // 8 frames
	const pages, runs = 3 * MinBudget / pager.PageSize, 200
	ids := writePages(t, f, numbered(pages)...)

	// A cyclic scan over three times the budget misses on every fetch.
	before, next := p.Stats(), 0
	allocs := testing.AllocsPerRun(runs, func() {
		i := next % pages
		next++
		h, err := p.Fetch(ids[i])
		if err != nil {
			t.Fatalf("fetch %d: %v", ids[i], err)
		}
		if got := binary.LittleEndian.Uint64(h.Data()); got != uint64(i)*7919+1 {
			t.Fatalf("page %d payload = %d, want %d", ids[i], got, uint64(i)*7919+1)
		}
		h.Release()
	})
	st := p.Stats()
	if misses := st.Misses - before.Misses; misses != uint64(next) || st.Hits != before.Hits {
		t.Fatalf("cyclic scan of %d pages over 8 frames: %d misses, %d hits in %d fetches",
			pages, misses, st.Hits-before.Hits, next)
	}
	if allocs > 0 {
		t.Fatalf("a miss allocates %.0f objects, want 0", allocs)
	}
}

func TestPoolPinnedPagesSurviveEviction(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget)
	ids := writePages(t, f, append([][]byte{[]byte("pinned")}, numbered(30)...)...)

	pinned, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	for _, id := range ids[1:] {
		h, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch filler: %v", err)
		}
		h.Release()
	}
	if got := string(pinned.Data()[:6]); got != "pinned" {
		t.Fatalf("pinned payload = %q", got)
	}
	if st := p.Stats(); st.Evictions == 0 {
		t.Fatalf("30 fillers over 8 frames never evicted: %+v", st)
	}
	pinned.Release()
}

func TestFetchChecksumMismatchNamesPageAndOffset(t *testing.T) {
	p, f, path := newTestPool(t, MinBudget)
	ids := writePages(t, f, []byte("a healthy page"), []byte("soon to be corrupted"))
	id := ids[1]
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	corrupt(t, path, int64(id)*pager.PageSize+100)

	_, err := p.Fetch(id)
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

// corrupt flips the byte at off of the file at path, behind any pool's back.
func corrupt(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	defer raw.Close()
	b := []byte{0}
	if _, err := raw.ReadAt(b, off); err != nil {
		t.Fatalf("read byte %d: %v", off, err)
	}
	b[0] ^= 0xFF
	if _, err := raw.WriteAt(b, off); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
}

// logRecords writes records of the given sizes (random bytes) through a
// Writer whose stream starts at page 0 and returns them, their refs and the
// stream size.
func logRecords(t *testing.T, p *Pool, sizes []int) ([][]byte, []int64, int64) {
	t.Helper()
	w := NewWriter(p, 0)
	rng := rand.New(rand.NewSource(42))
	recs := make([][]byte, len(sizes))
	refs := make([]int64, len(sizes))
	for i, n := range sizes {
		recs[i] = make([]byte, n)
		rng.Read(recs[i])
		ref, err := w.Append(recs[i])
		if err != nil {
			t.Fatalf("append %d bytes: %v", n, err)
		}
		refs[i] = ref
	}
	size, err := w.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return recs, refs, size
}

// Tiny records, records spanning several pages, one spanning an extent
// boundary and one longer than an extent.
var mixedSizes = []int{0, 1, 17, 4000, PayloadSize, PayloadSize + 1, 3*PayloadSize + 5, 9, 12345,
	ExtentPages*PayloadSize - 20000, 50, ExtentPages*PayloadSize + 7, 3}

func TestLogRoundTripIncludingMultiPageRecords(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget)
	recs, refs, size := logRecords(t, p, mixedSizes)

	// Read through a cold pool to force faulting.
	log := NewLog(NewPool(f, MinBudget), 0, size)
	for i, ref := range refs {
		got, err := log.ReadRecord(nil, ref)
		if err != nil {
			t.Fatalf("read record %d: %v", i, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(recs[i]))
		}
	}

	// Out-of-bounds reference must fail loudly, not read garbage.
	if _, err := log.ReadRecord(nil, size-1); err == nil {
		t.Fatal("read past stream end succeeded")
	}
	if _, err := log.ReadRecord(nil, -4); err == nil {
		t.Fatal("negative ref succeeded")
	}
}

// TestReadRecordAppendsToDst: ReadRecord appends after dst's bytes and, on a
// warm page with room in dst, allocates nothing.
func TestReadRecordAppendsToDst(t *testing.T) {
	p, _, _ := newTestPool(t, MinBudget)
	recs, refs, size := logRecords(t, p, []int{17, 300})
	log := NewLog(p, 0, size)
	got, err := log.ReadRecord([]byte("prefix:"), refs[1])
	if err != nil || string(got) != "prefix:"+string(recs[1]) {
		t.Fatalf("ReadRecord(prefix) = %q, %v", got, err)
	}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := log.ReadRecord(buf, refs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm one-page ReadRecord into a roomy dst allocates %.0f objects, want 0", allocs)
	}
}

// TestWriterWritesExtents holds the writer's file to the page layout a
// page-at-a-time writer would leave — pages in stream order, each with its
// CRC, the tail of the last page zero — and its pool to what it installs:
// every written page counted as a write-back, the first budget's worth of
// pages cached clean, nothing evicted.
func TestWriterWritesExtents(t *testing.T) {
	p, f, path := newTestPool(t, MinBudget) // 8 frames
	recs, _, size := logRecords(t, p, mixedSizes)
	var stream []byte
	for _, r := range recs {
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(r)))
		stream = append(stream, r...)
	}
	if int64(len(stream)) != size {
		t.Fatalf("stream size %d, want %d", size, len(stream))
	}
	pages := (len(stream) + PayloadSize - 1) / PayloadSize
	if f.NumPages() != pages || pages <= ExtentPages {
		t.Fatalf("file holds %d pages, want %d (past one %d-page extent)", f.NumPages(), pages, ExtentPages)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pages; k++ {
		page := raw[k*pager.PageSize : (k+1)*pager.PageSize]
		want := make([]byte, PayloadSize)
		copy(want, stream[min(k*PayloadSize, len(stream)):])
		if !bytes.Equal(page[4:], want) {
			t.Fatalf("page %d payload differs from the stream", k)
		}
		if err := checkPage(pager.PageID(k), page); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Writebacks != uint64(pages) || st.Evictions != 0 || st.ResidentPages != 8 || st.Hits+st.Misses != 0 {
		t.Fatalf("pool after writing %d pages: %+v; want %d write-backs, 8 resident, no eviction or fetch",
			pages, st, pages)
	}
	for id := pager.PageID(0); id < 8; id++ {
		h, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if st := p.Stats(); st.Hits != 8 || st.Misses != 0 {
		t.Fatalf("the first 8 pages are not the installed ones: %+v", st)
	}
}

// TestScannerReadsRecords: the scanner returns every record whole, in
// ascending order and after jumping back, and reads its file directly —
// the pool it came from sees no fetch.
func TestScannerReadsRecords(t *testing.T) {
	p, f, _ := newTestPool(t, MinBudget)
	recs, refs, size := logRecords(t, p, mixedSizes)
	pool := NewPool(f, MinBudget)
	sc := NewLog(pool, 0, size).Scanner()
	order := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 3, 12, 0}
	for _, i := range order {
		got, err := sc.Record(refs[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(recs[i]))
		}
	}
	if _, err := sc.Record(size - 1); err == nil {
		t.Fatal("scan past stream end succeeded")
	}
	if st := pool.Stats(); st.Hits+st.Misses != 0 || st.ResidentPages != 0 {
		t.Fatalf("scanner went through the pool: %+v", st)
	}
}

// TestScannerChecksumNamesPage: a record on a rotten page fails the scan
// with the page and its byte offset; records on sound pages of the same
// extent still read.
func TestScannerChecksumNamesPage(t *testing.T) {
	p, f, path := newTestPool(t, MinBudget)
	recs, refs, size := logRecords(t, p, []int{100, 3 * PayloadSize, 100})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	const bad = 2 // the middle record's pages are 0..3
	corrupt(t, path, bad*pager.PageSize+50)
	sc := NewLog(NewPool(f, MinBudget), 0, size).Scanner()
	if got, err := sc.Record(refs[0]); err != nil || !bytes.Equal(got, recs[0]) {
		t.Fatalf("record on a sound page: %v", err)
	}
	_, err := sc.Record(refs[1])
	if err == nil {
		t.Fatal("scan over a corrupted page succeeded")
	}
	for _, want := range []string{fmt.Sprintf("page %d", bad), fmt.Sprintf("byte offset %d", bad*pager.PageSize), "checksum mismatch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if got, err := sc.Record(refs[2]); err != nil || !bytes.Equal(got, recs[2]) {
		t.Fatalf("record after the rotten page: %v", err)
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
	size, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog(p, 0, size)

	before := p.Stats()
	got, err := log.ReadRecord(nil, ref)
	if err != nil || string(got) != string(small) {
		t.Fatalf("ReadRecord = %q, %v; want %q", got, err, small)
	}
	st := p.Stats()
	if fetches := st.Hits + st.Misses - before.Hits - before.Misses; fetches != 1 {
		t.Fatalf("one-page record cost %d fetches, want 1", fetches)
	}
	if got, err := log.ReadRecord(nil, sref); err != nil || string(got) != string(straddle) {
		t.Fatalf("straddling ReadRecord = %q, %v; want %q", got, err, straddle)
	}
}

// TestResumeWriterContinuesStream appends to a finished stream from the page
// after its end: old and new refs read back through one Log over the longer
// stream, no page before the resume point is written again, and a second
// append over the same pages — one that failed before its header landed,
// retried — replaces what the pool cached of the first.
func TestResumeWriterContinuesStream(t *testing.T) {
	p, f, path := newTestPool(t, 64*pager.PageSize)
	recs, refs, size := logRecords(t, p, []int{10, 5000, 300})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	from := (size + PayloadSize - 1) / PayloadSize * PayloadSize
	appendRecs := func(fill byte) ([][]byte, []int64, int64) {
		w := ResumeWriter(p, 0, from)
		var more [][]byte
		var moreRefs []int64
		for _, n := range []int{7, 2 * PayloadSize, 40} {
			rec := bytes.Repeat([]byte{fill}, n)
			ref, err := w.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			more, moreRefs = append(more, rec), append(moreRefs, ref)
		}
		end, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return more, moreRefs, end
	}
	check := func(more [][]byte, moreRefs []int64, end int64) {
		t.Helper()
		log := NewLog(p, 0, end)
		for i, ref := range append(append([]int64(nil), refs...), moreRefs...) {
			want := append(append([][]byte(nil), recs...), more...)[i]
			got, err := log.ReadRecord(nil, ref)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d at %d: %d bytes, %v; want %d bytes", i, ref, len(got), err, len(want))
			}
		}
	}
	more, moreRefs, end := appendRecs(0xAA)
	if moreRefs[0] != from {
		t.Fatalf("first resumed record at %d, want the page-aligned %d", moreRefs[0], from)
	}
	check(more, moreRefs, end)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:len(before)], before) || f.NumPages() <= len(before)/pager.PageSize {
		t.Fatalf("resuming rewrote the stream's pages or added none (%d -> %d pages)",
			len(before)/pager.PageSize, f.NumPages())
	}
	more, moreRefs, end = appendRecs(0x55)
	check(more, moreRefs, end)
	if len(p.clock) != len(p.frames) {
		t.Fatalf("the pool holds %d frames for %d pages after the retried append", len(p.clock), len(p.frames))
	}
}
