package pagecache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// The record log lays variable-length records into the page file as one
// contiguous byte stream: logical offset o lives at byte 4+o%PayloadSize of
// page base+o/PayloadSize (the first 4 bytes of every page are its CRC).
// Records are length-prefixed and span page boundaries freely, so a 5 KiB
// histogram payload or a packed slot table is one record regardless of page
// size. References are logical offsets — stable, compact, and independent of
// page layout.

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

// ReadRecord returns the record starting at logical offset ref. The page
// holding the length prefix is pinned once, for the prefix and as much of the
// body as it holds, so a record within one page costs one Fetch.
func (l *Log) ReadRecord(ref int64) ([]byte, error) {
	var (
		hdr   [4]byte
		first []byte  // body bytes on the prefix's page
		h     *Handle // pins first's page; nil when the prefix straddles pages
	)
	if id, within := l.page(ref); ref >= 0 && ref+int64(len(hdr)) <= l.size && within+len(hdr) <= PayloadSize {
		var err error
		if h, err = l.pool.Fetch(id); err != nil {
			return nil, err
		}
		copy(hdr[:], h.Data()[within:])
		first = h.Data()[within+len(hdr):]
	} else if err := l.readAt(hdr[:], ref); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if ref+4+n > l.size {
		if h != nil {
			h.Release()
		}
		return nil, fmt.Errorf("pagecache: record at %d claims %d bytes, stream holds %d",
			ref, n, l.size)
	}
	buf := make([]byte, n)
	c := copy(buf, first)
	if h != nil {
		h.Release()
	}
	if err := l.readAt(buf[c:], ref+4+int64(c)); err != nil {
		return nil, err
	}
	return buf, nil
}

// Writer appends records to a fresh stream, allocating pages through the
// pool as the stream grows — under a small budget, earlier dirty pages
// stream back to disk while later ones are still being filled.
type Writer struct {
	pool *Pool
	base pager.PageID
	off  int64   // stream bytes written
	cur  *Handle // page being filled (pinned, dirty)
}

// NewWriter starts a stream whose first page will be base. The caller must
// have allocated pages 0..base-1 already (the header pages); stream pages
// are allocated on demand and must come out of the file sequentially.
func NewWriter(pool *Pool, base pager.PageID) *Writer {
	return &Writer{pool: pool, base: base}
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
		within := int(w.off % PayloadSize)
		if w.cur == nil || within == 0 {
			if err := w.turnPage(); err != nil {
				return err
			}
		}
		n := copy(w.cur.Data()[within:], b)
		b = b[n:]
		w.off += int64(n)
	}
	return nil
}

// turnPage releases the filled page and allocates the next stream page.
func (w *Writer) turnPage() error {
	if w.cur != nil {
		w.cur.Release()
		w.cur = nil
	}
	h, err := w.pool.Allocate()
	if err != nil {
		return err
	}
	want := w.base + pager.PageID(w.off/PayloadSize)
	if h.ID() != want {
		h.Release()
		return fmt.Errorf("pagecache: stream page allocated at %d, want %d (interleaved allocation)",
			h.ID(), want)
	}
	w.cur = h
	return nil
}

// Finish releases the trailing page and returns the stream length. The
// caller flushes the pool (and syncs the file) to make the stream durable.
func (w *Writer) Finish() int64 {
	if w.cur != nil {
		w.cur.Release()
		w.cur = nil
	}
	return w.off
}
