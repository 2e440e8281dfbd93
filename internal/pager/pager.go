// Package pager implements the page-granular file under the store's disk
// layout — the paper's "the lists can be partitioned into disk pages" (§IV-D
// implementation notes) taken as the unit of I/O. A File allocates, reads,
// writes and syncs whole 4 KiB pages — one at a time, or an extent of
// adjacent pages in one system call — and nothing else; caching, checksums
// and record framing live one layer up in internal/pagecache.
package pager

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page granularity (4 KiB, the classical default).
const PageSize = 4096

// PageID identifies a page within a file.
type PageID uint32

// InvalidPage marks the absence of a page (end of a chain).
const InvalidPage = PageID(0xFFFFFFFF)

// File is a page-granular file. All reads and writes move whole pages.
type File struct {
	mu    sync.Mutex
	f     *os.File
	pages uint32
}

// Create creates (or truncates) a page file at path.
func Create(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	return &File{f: f}, nil
}

// Open opens an existing page file.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: file size %d is not page-aligned", st.Size())
	}
	return &File{f: f, pages: uint32(st.Size() / PageSize)}, nil
}

// NumPages returns the number of allocated pages.
func (pf *File) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int(pf.pages)
}

// Allocate appends a zeroed page and returns its ID.
func (pf *File) Allocate() (PageID, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	id := PageID(pf.pages)
	if id == InvalidPage {
		return InvalidPage, errors.New("pager: page space exhausted")
	}
	var zero [PageSize]byte
	if _, err := pf.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("pager: %w", err)
	}
	pf.pages++
	return id, nil
}

// ReadPage fills buf (PageSize bytes) with page id's contents.
func (pf *File) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pager: buffer size %d != page size", len(buf))
	}
	return pf.ReadExtent(id, buf)
}

// ReadExtent fills buf, a whole number of pages, with the pages starting at
// id in one read. Every page must already exist.
func (pf *File) ReadExtent(id PageID, buf []byte) error {
	k, err := extentPages(buf)
	if err != nil {
		return err
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if uint64(id)+k > uint64(pf.pages) {
		miss := max(id, PageID(pf.pages)) // the first page that is not there
		return fmt.Errorf("pager: read of page %d (byte offset %d) beyond end (%d pages)",
			miss, int64(miss)*PageSize, pf.pages)
	}
	if n, err := pf.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		bad := id + PageID(n/PageSize) // the page the read stopped in
		return fmt.Errorf("pager: reading page %d (byte offset %d): %w", bad, int64(bad)*PageSize, err)
	}
	return nil
}

// WritePage writes buf (PageSize bytes) to page id, which must exist.
func (pf *File) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pager: buffer size %d != page size", len(buf))
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if uint32(id) >= pf.pages {
		return fmt.Errorf("pager: write of page %d (byte offset %d) beyond end (%d pages)",
			id, int64(id)*PageSize, pf.pages)
	}
	if _, err := pf.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: writing page %d (byte offset %d): %w", id, int64(id)*PageSize, err)
	}
	return nil
}

// WriteExtent writes buf, a whole number of pages, to the pages starting at
// id in one write. The extent may run past the end of the file, which grows
// to hold it, but may not leave a hole: id is at most NumPages.
func (pf *File) WriteExtent(id PageID, buf []byte) error {
	k, err := extentPages(buf)
	if err != nil {
		return err
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	end := uint64(id) + k
	if uint32(id) > pf.pages {
		return fmt.Errorf("pager: write of page %d (byte offset %d) leaves a hole after page %d",
			id, int64(id)*PageSize, pf.pages)
	}
	if end >= uint64(InvalidPage) {
		return errors.New("pager: page space exhausted")
	}
	if _, err := pf.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: writing pages [%d, %d) (byte offset %d): %w", id, end, int64(id)*PageSize, err)
	}
	pf.pages = max(pf.pages, uint32(end))
	return nil
}

// extentPages returns the page count of an extent buffer.
func extentPages(buf []byte) (uint64, error) {
	if len(buf) == 0 || len(buf)%PageSize != 0 {
		return 0, fmt.Errorf("pager: buffer size %d is not a whole number of pages", len(buf))
	}
	return uint64(len(buf) / PageSize), nil
}

// Sync forces all written pages to stable storage. Durable checkpoints call
// it before publishing (renaming) the file.
func (pf *File) Sync() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("pager: %w", err)
	}
	return nil
}

// Close flushes and closes the underlying file.
func (pf *File) Close() error { return pf.f.Close() }
