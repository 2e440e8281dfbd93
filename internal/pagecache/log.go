package pagecache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/pager"
)

// The record log lays variable-length records into the page file as one
// contiguous byte stream: logical offset o lives at byte 4+o%PayloadSize of
// page base+o/PayloadSize (the first 4 bytes of every page are its CRC).
// Records are length-prefixed and span page boundaries freely, so a 5 KiB
// histogram payload or a packed slot table is one record regardless of page
// size. References are logical offsets — stable, compact, and independent of
// page layout.
//
// A stream moves to and from disk in extents of ExtentPages adjacent pages,
// one system call each: the Writer fills one and writes it whole, and a
// Scanner reads one ahead of a mostly ascending walk over the records. Single
// records read through the pool page by page.

// ExtentPages is the number of pages a Writer writes, and a Scanner reads,
// in one call (256 KiB).
const ExtentPages = 64

// Log reads records from a finished byte stream laid out by a Writer.
type Log struct {
	pool *Pool
	base pager.PageID // first stream page
	size int64        // total stream bytes (bounds every read)
}

// NewLog opens the record stream of pool's file: pages base.. holding size
// stream bytes.
func NewLog(pool *Pool, base pager.PageID, size int64) *Log {
	return &Log{pool: pool, base: base, size: size}
}

// page returns the page holding logical offset off and the offset within its
// payload.
func (l *Log) page(off int64) (pager.PageID, int) {
	return l.base + pager.PageID(off/PayloadSize), int(off % PayloadSize)
}

// readAt copies len(buf) stream bytes starting at off, faulting pages
// through the pool as needed.
func (l *Log) readAt(buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > l.size {
		return fmt.Errorf("pagecache: record read [%d, %d) outside stream of %d bytes",
			off, off+int64(len(buf)), l.size)
	}
	for len(buf) > 0 {
		id, within := l.page(off)
		h, err := l.pool.Fetch(id)
		if err != nil {
			return err
		}
		n := copy(buf, h.Data()[within:])
		h.Release()
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// ReadRecord appends the record starting at logical offset ref to dst and
// returns the extended slice; it allocates only when dst lacks the room. The
// page holding the length prefix is pinned once, for the prefix and as much
// of the body as it holds, so a record within one page costs one Fetch.
func (l *Log) ReadRecord(dst []byte, ref int64) ([]byte, error) {
	var (
		hdr    [4]byte
		first  []byte // body bytes on the prefix's page
		h      Handle // pins first's page
		pinned bool   // false when the prefix straddles pages
	)
	if id, within := l.page(ref); ref >= 0 && ref+int64(len(hdr)) <= l.size && within+len(hdr) <= PayloadSize {
		var err error
		if h, err = l.pool.Fetch(id); err != nil {
			return dst, err
		}
		pinned = true
		copy(hdr[:], h.Data()[within:])
		first = h.Data()[within+len(hdr):]
	} else if err := l.readAt(hdr[:], ref); err != nil {
		return dst, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if ref+4+n > l.size {
		if pinned {
			h.Release()
		}
		return dst, fmt.Errorf("pagecache: record at %d claims %d bytes, stream holds %d",
			ref, n, l.size)
	}
	start := len(dst)
	dst = slices.Grow(dst, int(n))[:start+int(n)]
	c := copy(dst[start:], first)
	if pinned {
		h.Release()
	}
	if err := l.readAt(dst[start+c:], ref+4+int64(c)); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// Scanner reads records of a finished stream straight from its file, never
// through the pool: it keeps one extent of ExtentPages pages read ahead of
// the walk and one record buffer, and checks each page's CRC the first time
// a record reads from it. A walk in ascending ref order reads every page of
// the stream once, in one call per extent; a ref outside the loaded extent
// loads the extent that starts at its page.
type Scanner struct {
	l       *Log
	ext     []byte       // loaded pages
	first   pager.PageID // page of ext[0]
	pages   int          // pages loaded into ext
	checked uint64       // bit k: page first+k passed its CRC check (ExtentPages <= 64)
	rec     []byte       // the last record returned
}

// Scanner returns a read-ahead scanner over the stream.
func (l *Log) Scanner() *Scanner {
	return &Scanner{l: l, ext: make([]byte, ExtentPages*pager.PageSize)}
}

// Record returns the record starting at logical offset ref. The slice is the
// scanner's and is valid until the next call.
func (s *Scanner) Record(ref int64) ([]byte, error) {
	var hdr [4]byte
	if err := s.read(hdr[:], ref); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if ref+4+n > s.l.size {
		return nil, fmt.Errorf("pagecache: record at %d claims %d bytes, stream holds %d",
			ref, n, s.l.size)
	}
	s.rec = slices.Grow(s.rec[:0], int(n))[:n]
	if err := s.read(s.rec, ref+4); err != nil {
		return nil, err
	}
	return s.rec, nil
}

// read copies len(buf) stream bytes starting at off out of the loaded
// extent, loading the extent that holds each page it is missing.
func (s *Scanner) read(buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > s.l.size {
		return fmt.Errorf("pagecache: record read [%d, %d) outside stream of %d bytes",
			off, off+int64(len(buf)), s.l.size)
	}
	for len(buf) > 0 {
		id, within := s.l.page(off)
		k := int(id) - int(s.first)
		if k < 0 || k >= s.pages {
			if err := s.load(id); err != nil {
				return err
			}
			k = 0
		}
		page := s.ext[k*pager.PageSize : (k+1)*pager.PageSize]
		if s.checked&(1<<k) == 0 {
			if err := checkPage(id, page); err != nil {
				return err
			}
			s.checked |= 1 << k
		}
		n := copy(buf, page[4+within:])
		buf = buf[n:]
		off += int64(n)
	}
	return nil
}

// load reads the extent starting at page id, cut at the stream's last page.
func (s *Scanner) load(id pager.PageID) error {
	last, _ := s.l.page(s.l.size - 1)
	pages := min(ExtentPages, int(last-id)+1)
	s.pages, s.checked = 0, 0
	if err := s.l.pool.f.ReadExtent(id, s.ext[:pages*pager.PageSize]); err != nil {
		return err
	}
	s.first, s.pages = id, pages
	return nil
}

// Writer appends records to a fresh stream. It fills one extent of
// ExtentPages pages in memory, stamps each page's CRC and writes the extent
// with one call; each written extent is handed to the pool, which caches
// what its budget holds.
type Writer struct {
	pool *Pool
	base pager.PageID
	off  int64        // stream bytes written
	ext  []byte       // the extent being filled
	next pager.PageID // page of ext[0]
}

// NewWriter starts a stream whose first page will be base. The caller must
// have allocated pages 0..base-1 already (the header pages); the stream's
// pages are appended after them.
func NewWriter(pool *Pool, base pager.PageID) *Writer {
	return ResumeWriter(pool, base, 0)
}

// ResumeWriter continues the stream whose first page is base at logical
// offset off, which must be page-aligned (a multiple of PayloadSize): the
// first record lands at the start of page base+off/PayloadSize and refs
// continue the stream's, so a Log over the longer stream reads old and new
// records alike. Pages before that one are never written.
func ResumeWriter(pool *Pool, base pager.PageID, off int64) *Writer {
	if off < 0 || off%PayloadSize != 0 {
		panic(fmt.Sprintf("pagecache: resuming a stream at offset %d, not a page boundary", off))
	}
	next := base + pager.PageID(off/PayloadSize)
	return &Writer{pool: pool, base: base, off: off, next: next, ext: make([]byte, ExtentPages*pager.PageSize)}
}

// Append writes one length-prefixed record and returns its reference.
func (w *Writer) Append(data []byte) (int64, error) {
	ref := w.off
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	if err := w.write(hdr[:]); err != nil {
		return 0, err
	}
	if err := w.write(data); err != nil {
		return 0, err
	}
	return ref, nil
}

func (w *Writer) write(b []byte) error {
	for len(b) > 0 {
		id, within := w.base+pager.PageID(w.off/PayloadSize), int(w.off%PayloadSize)
		k := int(id - w.next)
		if k == ExtentPages {
			if err := w.flush(ExtentPages); err != nil {
				return err
			}
			k = 0
		}
		n := copy(w.ext[k*pager.PageSize+4+within:(k+1)*pager.PageSize], b)
		b = b[n:]
		w.off += int64(n)
	}
	return nil
}

// flush stamps the first pages of the extent with their CRCs, writes them,
// hands them to the pool and starts the next extent zeroed.
func (w *Writer) flush(pages int) error {
	ext := w.ext[:pages*pager.PageSize]
	for o := 0; o < len(ext); o += pager.PageSize {
		binary.LittleEndian.PutUint32(ext[o:], crc32.Checksum(ext[o+4:o+pager.PageSize], crcTable))
	}
	if err := w.pool.f.WriteExtent(w.next, ext); err != nil {
		return err
	}
	w.pool.install(w.next, ext)
	clear(ext)
	w.next += pager.PageID(pages)
	return nil
}

// Finish writes the partly filled last extent and returns the stream
// length. The caller syncs the file to make the stream durable.
func (w *Writer) Finish() (int64, error) {
	if pages := int((w.off+PayloadSize-1)/PayloadSize) - int(w.next-w.base); pages > 0 {
		if err := w.flush(pages); err != nil {
			return 0, err
		}
	}
	return w.off, nil
}
