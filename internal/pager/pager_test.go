package pager

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func newFile(t *testing.T) *File {
	t.Helper()
	pf, err := Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestFileAllocateReadWrite(t *testing.T) {
	pf := newFile(t)
	if pf.NumPages() != 0 {
		t.Fatalf("fresh file has %d pages", pf.NumPages())
	}
	id, err := pf.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	if err := pf.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := pf.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != buf[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], buf[i])
		}
	}
}

func TestFileBoundsChecks(t *testing.T) {
	pf := newFile(t)
	buf := make([]byte, PageSize)
	if err := pf.ReadPage(0, buf); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := pf.WritePage(5, buf); err == nil {
		t.Error("write of unallocated page succeeded")
	}
	if err := pf.ReadPage(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

// Read-path errors must name the page and its byte offset: a corruption
// report that says only "read failed" is useless when diagnosing which
// checkpoint page rotted.
func TestReadErrorsNamePageAndOffset(t *testing.T) {
	pf := newFile(t)
	for i := 0; i < 3; i++ {
		if _, err := pf.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	err := pf.ReadPage(7, buf)
	if err == nil {
		t.Fatal("read beyond end succeeded")
	}
	for _, want := range []string{"page 7", fmt.Sprintf("byte offset %d", 7*PageSize)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// A read that fails at the OS layer (file truncated underneath the
	// pager) must also locate the page.
	if err := pf.f.Truncate(PageSize); err != nil {
		t.Fatal(err)
	}
	err = pf.ReadPage(2, buf)
	if err == nil {
		t.Fatal("read of truncated-away page succeeded")
	}
	for _, want := range []string{"page 2", fmt.Sprintf("byte offset %d", 2*PageSize)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFileReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	pf, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := pf.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := pf.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 1 {
		t.Fatalf("reopened pages = %d", re.NumPages())
	}
	got := make([]byte, PageSize)
	if err := re.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("data lost across reopen")
	}
}
