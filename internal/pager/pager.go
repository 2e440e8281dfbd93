// Package pager implements the page-granular file under the store's disk
// layout — the paper's "the lists can be partitioned into disk pages" (§IV-D
// implementation notes) taken as the unit of I/O. A File allocates, reads,
// writes and syncs whole 4 KiB pages and nothing else; caching, checksums
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
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if uint32(id) >= pf.pages {
		return fmt.Errorf("pager: read of page %d (byte offset %d) beyond end (%d pages)",
			id, int64(id)*PageSize, pf.pages)
	}
	_, err := pf.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("pager: reading page %d (byte offset %d): %w", id, int64(id)*PageSize, err)
	}
	return nil
}

// WritePage writes buf (PageSize bytes) to page id.
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
