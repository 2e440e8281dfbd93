package store

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/verify"
)

// The appended-flatten suite: an automatic flatten appends a generation to
// the live checkpoint file instead of rewriting it. Every crash image of an
// append must reopen to the state before or after it, views must keep
// faulting from the file across appends and rewrites, a probe must fault
// about one extra page per live generation, and nothing may outlive Close.

// updateRandom commits k updates of random live objects to fresh histograms,
// in commits of 8.
func updateRandom(t *testing.T, s *Store, rng *rand.Rand, k int) {
	t.Helper()
	v := s.View()
	for done := 0; done < k; done += 8 {
		ops := make([]Op, min(8, k-done))
		for i := range ops {
			lo, w := rng.Float64()*float64(len(v.IDs)), 1+rng.Float64()*24
			ops[i] = UpdateObject(v.IDs[rng.Intn(len(v.IDs))], pdf.MustHistogram(
				[]float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + w}, []float64{1, 2, 3, 1}))
		}
		mustApply(t, s, ops...)
	}
}

// mustAutoCheckpoint runs the WAL trigger's flatten and checks whether it
// appended.
func mustAutoCheckpoint(t *testing.T, s *Store, wantAppended bool) {
	t.Helper()
	before := s.Stats().AppendedFlattens
	if err := s.autoCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().AppendedFlattens > before; got != wantAppended {
		t.Fatalf("automatic flatten appended = %v, want %v (%+v)", got, wantAppended, s.Stats())
	}
}

// TestAppendedFlattenCrashImages cuts an appended flatten at every point a
// crash can stop it: its pages cut at each page boundary, mid-page and at the
// file's end before the header slot lands; the new slot torn or garbled; the
// older slot garbled next to the new one; the WAL reset or not. Every image
// must reopen to the state the flatten saved — from the previous generation
// plus the WAL, or from the new one.
func TestAppendedFlattenCrashImages(t *testing.T) {
	const n = 1500
	opt := Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1}
	s, dir := openScatteredDir(t, n, 41, opt)
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	updateRandom(t, s, rng, 200)
	mustAutoCheckpoint(t, s, true) // generation 2: the new slot goes to slot 1
	updateRandom(t, s, rng, 200)
	want := s.View()
	before := copyFiles(t, dir)
	mustAutoCheckpoint(t, s, true) // generation 3: slot 0
	after := copyFiles(t, dir)

	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oldFile, newFile := read(before, checkpointName), read(after, checkpointName)
	oldWAL := read(before, walName)
	if len(read(after, walName)) != 0 || len(oldWAL) == 0 {
		t.Fatalf("WAL %d bytes before the flatten, %d after", len(oldWAL), len(read(after, walName)))
	}
	oldPages, newPages := len(oldFile)/pager.PageSize, len(newFile)/pager.PageSize
	if newPages <= oldPages+2 {
		t.Fatalf("the append wrote %d pages — test is vacuous", newPages-oldPages)
	}

	// open plants an image and checks it reopens to want at generation gen.
	open := func(label string, file, wal []byte, gen uint64) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, checkpointName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(d, opt)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer re.Close()
		sameView(t, label, re.View(), want)
		if g := re.Stats().Generation; g != gen {
			t.Fatalf("%s: opened generation %d, want %d", label, g, gen)
		}
		if c, err := re.CheckBase(); err != nil || c.Slots != n {
			t.Fatalf("%s: CheckBase = %+v, %v", label, c, err)
		}
	}

	// Before the header slot: page 0 is the old one, the appended pages are
	// cut anywhere, the WAL is whole.
	cuts := []int{oldPages * pager.PageSize, oldPages*pager.PageSize + pager.PageSize/2, len(newFile)}
	for p := oldPages + 1; p < newPages; p++ {
		cuts = append(cuts, p*pager.PageSize)
	}
	for _, cut := range cuts {
		img := append(append([]byte(nil), oldFile[:pager.PageSize]...), newFile[pager.PageSize:cut]...)
		open(fmt.Sprintf("cut@%d", cut), img, oldWAL, 2)
	}

	// The new slot (slot 0) torn — its first sector half new, the rest old —
	// or garbled: the previous generation and the WAL still serve.
	torn := append([]byte(nil), newFile...)
	copy(torn[hdrSlotLen/2:hdrSlotSize], oldFile[hdrSlotLen/2:hdrSlotSize])
	open("torn new slot", torn, oldWAL, 2)
	garbled := append([]byte(nil), newFile...)
	garbled[20] ^= 0xFF
	open("garbled new slot", garbled, oldWAL, 2)

	// The new slot landed: with the WAL reset or not, and with the older
	// slot garbled, the new generation serves.
	open("header landed, WAL not reset", newFile, oldWAL, 3)
	open("after", newFile, nil, 3)
	older := append([]byte(nil), newFile...)
	older[hdrSlotSize+20] ^= 0xFF
	open("older slot garbled", older, nil, 3)

	// Both slots unreadable is an error, not an empty store.
	both := append([]byte(nil), garbled...)
	both[hdrSlotSize+20] ^= 0xFF
	d := t.TempDir()
	if err := os.WriteFile(filepath.Join(d, checkpointName), both, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d, opt); err == nil || !strings.Contains(err.Error(), "no valid header slot") {
		t.Fatalf("both header slots garbled: err = %v", err)
	}
}

// TestV3HeaderFailsV2MagicCheck holds the format changes to their purpose:
// a build that reads only v2 files checks the first eight bytes against
// "CPNNCKP2", and one that reads only v3 checks each header slot against
// "CPNNCKP3". Both must refuse every file this build writes, whichever slot
// was written last, instead of opening a stale generation whose WAL has
// been reset.
func TestV3HeaderFailsV2MagicCheck(t *testing.T) {
	s, dir := openScatteredDir(t, 600, 43, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(44))
	for gen := 1; gen <= 3; gen++ {
		if got := checkpointMagic(t, dir); got == ckptMagicV2 || got != ckptMagicV4 {
			t.Fatalf("generation %d: magic %q", gen, got)
		}
		file, err := os.ReadFile(filepath.Join(dir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(file[hdrSlotSize : hdrSlotSize+8]); got == ckptMagicV3 {
			t.Fatalf("generation %d: header slot 1 magic %q", gen, got)
		}
		updateRandom(t, s, rng, 40)
		mustAutoCheckpoint(t, s, true)
	}
}

// TestViewsSurviveAppendedFlattens holds a view taken before three appended
// flattens and one full rewrite to byte-identical answers: it faults every
// payload from the generation it was published over, through the file the
// rewrite renamed away, with the collector run between steps — and from two
// reader goroutines while the flattens write through the shared pool.
func TestViewsSurviveAppendedFlattens(t *testing.T) {
	s, _ := openScatteredDir(t, 1200, 45, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(46))
	// The reopened store's view faults every unchanged slot from the file.
	updateRandom(t, s, rng, 8)
	old := s.View()
	answers := func() (string, error) {
		e, err := core.NewEngineWithIndex(old.Dataset, old.Index)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for q := 10.0; q < 1200; q += 37 {
			res, err := e.CPNN(q, verify.Constraint{P: 0.2, Delta: 0.01}, core.Options{})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%v %v\n", res.Answers, res.Candidates)
		}
		for i := 0; i < old.Dataset.Len(); i++ {
			fmt.Fprintf(&sb, "%v\n", old.Dataset.Object(i).PDF)
		}
		return sb.String(), nil
	}
	want, err := answers()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := answers(); err != nil || got != want {
					t.Errorf("a reader saw the old view's answers change (%v)", err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for step := 0; step < 4; step++ {
		updateRandom(t, s, rng, 100)
		if step < 3 {
			mustAutoCheckpoint(t, s, true)
		} else if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		updateRandom(t, s, rng, 8)
		runtime.GC()
		runtime.GC()
		if got, err := answers(); err != nil || got != want {
			t.Fatalf("step %d: the old view's answers changed (%v)", step, err)
		}
	}
	if st := s.Stats(); st.AppendedFlattens != 3 || st.FullFlattens != 1 {
		t.Fatalf("flattens: %d appended, %d full", st.AppendedFlattens, st.FullFlattens)
	}
}

// TestAppendedGenerationsLocality extends TestCheckpointClustersPayloads to a
// base with g appended generations: each generation writes its payloads in
// centre order, so a cold probe faults about the pages its candidates'
// payloads fill plus one page per generation.
func TestAppendedGenerationsLocality(t *testing.T) {
	const n, probes, g = 3000, 60, 3
	opt := Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1}
	s, dir := openScatteredDir(t, n, 47, opt)
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < g; i++ {
		updateRandom(t, s, rng, n/25) // store_rw's 4,000 of 100,000
		mustAutoCheckpoint(t, s, true)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if gen := s.Stats().Generation; gen != g+1 {
		t.Fatalf("reopened at generation %d, want %d", gen, g+1)
	}
	v := s.View()
	e, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		t.Fatal(err)
	}
	var candidates, misses uint64
	for i := 0; i < probes; i++ {
		q := 50 + rng.Float64()*(n-100)
		before := s.Stats().PageCache.Misses
		if _, err := e.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{}); err != nil {
			t.Fatal(err)
		}
		got := s.Stats().PageCache.Misses - before
		// The payload sizes, read after the probe: reading a pdf faults it.
		ids := v.Index.Candidates(q).IDs
		bytes := 0
		for _, slot := range ids {
			p := v.Dataset.Object(slot).PDF
			raw, err := encodeOps([]Op{{Code: codeFor(p), ID: v.IDs[slot], PDF: p}})
			if err != nil {
				t.Fatal(err)
			}
			bytes += 4 + len(raw)
		}
		bound := uint64((bytes+pagecache.PayloadSize-1)/pagecache.PayloadSize + 2 + g)
		if got > bound {
			t.Fatalf("probe q=%.1f: %d misses for %d candidates holding %d payload bytes over %d generations, want <= %d",
				q, got, len(ids), bytes, g+1, bound)
		}
		candidates += uint64(len(ids))
		misses += got
	}
	if misses == 0 {
		t.Fatalf("%d probes faulted nothing — test is vacuous", probes)
	}
	t.Logf("%d probes over %d generations: %.1f candidates, %.2f misses a probe", probes, g+1,
		float64(candidates)/probes, float64(misses)/probes)
}

// TestNoGoroutineOutlivesClose: an appended flatten runs on the committer
// and starts nothing, so after Close the goroutine count returns to what it
// was before Open.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := openScatteredDir(t, 500, 49, Options{NoSync: true, CheckpointBytes: 4 << 10, CacheBytes: 1})
	rng := rand.New(rand.NewSource(50))
	updateRandom(t, s, rng, 400) // crosses the 4 KiB trigger many times
	if st := s.Stats(); st.AppendedFlattens == 0 {
		t.Fatalf("the WAL trigger never appended: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Open, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckBaseNamesCorruptPayload corrupts one slot's payload in a copied
// store, under an appended generation, with the page's CRC fixed up. A ref in
// the slot table that points past the log fails Open naming the slot. The
// stable ID inside a payload record of the first generation passes Open,
// which reads no payload, and CheckBase, which decodes every payload the
// live slot table references, must name the slot.
func TestCheckBaseNamesCorruptPayload(t *testing.T) {
	const n = 1000
	opt := Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1}
	s, dir := openScatteredDir(t, n, 55, opt)
	rng := rand.New(rand.NewSource(56))
	updateRandom(t, s, rng, 80)
	mustAutoCheckpoint(t, s, true)
	if c, err := s.CheckBase(); err != nil || c.Slots != n || c.Generation != 2 {
		t.Fatalf("CheckBase of a sound store = %+v, %v", c, err)
	}
	// A slot whose payload the append left in the first generation.
	b := s.baseRef.Load()
	firstEnd := (b.hdr.compacted/pager.PageSize - 1) * pagecache.PayloadSize
	slot := -1
	var ref int64
	for i := 0; i < n && slot < 0; i++ {
		if r := s.st.recs.At(i); r.ref < firstEnd {
			slot, ref = i, r.ref
		}
	}
	if slot < 0 {
		t.Fatal("every payload was appended — test is vacuous")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("slot %d ", slot)

	flip := func(off int64, mask byte) string {
		b := streamBytes(t, dir, off, 1)
		b[0] ^= mask
		return patchStream(t, dir, off, b)
	}
	// The ref's top byte, after the table's length prefix and count and the
	// slot's ID and interval.
	_, err := Open(flip(b.hdr.slotTab+4+8+32*int64(slot)+31, 0x40), opt)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "outside the log") {
		t.Fatalf("Open over a payload ref past the log (slot %d): err = %v, want it to name %q", slot, err, want)
	}

	// The ID follows the record's length prefix, the batch count and the op
	// code.
	re, err := Open(flip(ref+4+4+1, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, err = re.CheckBase()
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "payload record holds id") {
		t.Fatalf("CheckBase over a corrupt payload ID (slot %d): err = %v, want it to name %q", slot, err, want)
	}
}

// streamBytes reads k bytes at record-stream offset off of dir's
// checkpoint.db.
func streamBytes(t *testing.T, dir string, off int64, k int) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, k)
	for j := range out {
		o := off + int64(j)
		out[j] = file[(1+o/pagecache.PayloadSize)*pager.PageSize+4+o%pagecache.PayloadSize]
	}
	return out
}

// patchStream copies the store directory dir, overwrites the bytes at
// record-stream offset off of the copy's checkpoint.db with p, stamps each
// touched page's CRC afresh as the pagecache writer does, and returns the
// copy: a corruption only a check of the decoded records can see.
func patchStream(t *testing.T, dir string, off int64, p []byte) string {
	t.Helper()
	crash := copyFiles(t, dir)
	path := filepath.Join(crash, checkpointName)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range p {
		o := off + int64(j)
		page := file[(1+o/pagecache.PayloadSize)*pager.PageSize:][:pager.PageSize]
		page[4+o%pagecache.PayloadSize] = c
		byteOrder.PutUint32(page, crc32.Checksum(page[4:], crcTable))
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return crash
}

// TestCheckBaseAfterFullRewrite checks a fresh full rewrite at sizes whose
// STR pack, cut into runs of the node capacity, left a last run of one or
// two entries in a slab: CheckBase (and so cpnn-store verify) failed a sound
// store there, naming an underfull node.
func TestCheckBaseAfterFullRewrite(t *testing.T) {
	for _, n := range []int{33, 100, 1500} {
		s, _ := openTemp(t, Options{NoSync: true, CheckpointBytes: -1})
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = InsertObject(pdf.MustUniform(float64(i), float64(i)+2))
		}
		mustApply(t, s, ops...)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if c, err := s.CheckBase(); err != nil || c.Slots != n {
			t.Errorf("n=%d: CheckBase = %+v, %v", n, c, err)
		}
		s.Close()
	}
}

// TestV3BaseFlattensFull opens testdata/appended_v3 and flattens it as the
// WAL trigger does: the flatten over a v3 base is a full rewrite, so no v4
// slot is ever appended next to a v3 one (a v3 build would take the v3 slot
// and open a stale generation). The next flatten appends to the v4 file.
func TestV3BaseFlattensFull(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{checkpointName, walName} {
		b, err := os.ReadFile(filepath.Join("testdata", "appended_v3", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(57))
	updateRandom(t, s, rng, 16)
	mustAutoCheckpoint(t, s, false)
	if got := checkpointMagic(t, dir); got != ckptMagicV4 || s.Stats().Generation != 1 {
		t.Fatalf("after the flatten over a v3 base: magic %q, generation %d", got, s.Stats().Generation)
	}
	updateRandom(t, s, rng, 16)
	mustAutoCheckpoint(t, s, true)
	if c, err := s.CheckBase(); err != nil || c.Generation != 2 {
		t.Fatalf("CheckBase = %+v, %v", c, err)
	}
}
