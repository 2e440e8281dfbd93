package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/verify"
)

// The paged-checkpoint suite extends the crash-injection and oracle coverage
// to the v2 format: overlay views over a disk-backed base must answer
// byte-identically to a fully resident store under arbitrary churn, survive
// crashes at page boundaries of the checkpoint write, and serve datasets
// larger than the page-cache budget.

// TestOverlayVsDenseChurn is the 50-seed equivalence oracle: one store
// checkpoints aggressively (tiny cache budget, so post-checkpoint reads
// fault through the page cache) while a control store never checkpoints
// (everything stays resident). Under identical op scripts their views must
// stay indistinguishable — same tables, same regions, same C-PNN answers —
// and the paged store must still match after a reopen from disk.
func TestOverlayVsDenseChurn(t *testing.T) {
	const batches, maxOps = 12, 6
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			pagedDir := t.TempDir()
			paged, err := Open(pagedDir, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			dense, err := Open(t.TempDir(), Options{NoSync: true, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer dense.Close()

			scP, scD := newOpScript(seed), newOpScript(seed)
			for i := 0; i < batches; i++ {
				if _, err := paged.Apply(scP.batch(maxOps)); err != nil {
					t.Fatalf("paged batch %d: %v", i, err)
				}
				if _, err := dense.Apply(scD.batch(maxOps)); err != nil {
					t.Fatalf("dense batch %d: %v", i, err)
				}
				// Mid-churn flatten: later updates overlay the base, deletes
				// swap lazy slots around, and queries fault payloads back in.
				if i%3 == 2 {
					if err := paged.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after batch %d: %v", i, err)
					}
				}
				sameView(t, fmt.Sprintf("seed %d batch %d", seed, i), paged.View(), dense.View())
			}
			if st := paged.Stats(); st.BaseSlots == 0 && paged.View().Dataset.Len() > 0 {
				t.Fatalf("oracle never exercised lazy slots: %+v", st)
			}
			paged.Close()

			re, err := Open(pagedDir, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			sameView(t, fmt.Sprintf("seed %d reopen", seed), re.View(), dense.View())
		})
	}
}

// TestCrashDuringPagedCheckpointAtPageBoundaries plants prefixes of a real
// v2 checkpoint as the temp-file debris a kill -9 mid-checkpoint leaves,
// truncated at and around page boundaries. Recovery must discard the debris
// and serve the previous checkpoint + WAL.
func TestCrashDuringPagedCheckpointAtPageBoundaries(t *testing.T) {
	const seed, batches, maxOps = 11, 6, 5
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := newOpScript(seed)
	for i := 0; i < batches; i++ {
		if _, err := s.Apply(sc.batch(maxOps)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := copyFiles(t, dir)
	// A complete v2 file to cut prefixes from: checkpoint a copy of the
	// store's final state.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	cuts := []int{0, 1, pager.PageSize, pager.PageSize + 1, 2*pager.PageSize + pager.PageSize/2}
	if n := len(full); n > pager.PageSize {
		cuts = append(cuts, n-pager.PageSize, n-1)
	}
	for _, cut := range cuts {
		if cut > len(full) {
			continue
		}
		crash := copyFiles(t, img)
		if err := os.WriteFile(filepath.Join(crash, checkpointTmp), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crash, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen with %d-byte tmp debris: %v", cut, err)
		}
		sameView(t, fmt.Sprintf("tmp-debris@%d", cut), re.View(), controlView(t, seed, maxOps, batches))
		if _, err := os.Stat(filepath.Join(crash, checkpointTmp)); !os.IsNotExist(err) {
			t.Fatalf("tmp debris (%d bytes) not removed", cut)
		}
		re.Close()
	}
}

// TestLargerThanCacheServes commits a dataset several times the page-cache
// budget, checkpoints it to disk, reopens it so every payload is behind the
// page cache, and verifies queries and further updates keep working — with
// the scan itself faulting and evicting, not the pool silently growing.
func TestLargerThanCacheServes(t *testing.T) {
	dir := t.TempDir()
	// Minimum budget: 8 pages = 32 KiB of payload cache.
	opt := Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	const n = 3000 // histogram payloads; well past 32 KiB encoded
	sc := newOpScript(77)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, InsertObject(sc.randomPDF()))
	}
	if _, err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The view published before the flatten still holds the decoded pdfs;
	// a reopened store's view reads every payload from the base.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.BasePages*pager.PageSize <= int(st.CacheBytes) {
		t.Fatalf("dataset (%d pages) not larger than cache budget (%d bytes) — test is vacuous",
			st.BasePages, st.CacheBytes)
	}
	if st.BaseSlots != n || st.OverlaySlots != 0 {
		t.Fatalf("after flatten: %d base, %d overlay slots", st.BaseSlots, st.OverlaySlots)
	}

	// Faulting every object (answer assembly touches payloads) must miss
	// and evict: the scan reads a base many times the budget.
	before := st.PageCache
	v := s.View()
	for i := 0; i < v.Dataset.Len(); i++ {
		if v.Dataset.Object(i).PDF == nil {
			t.Fatalf("object %d faulted to nil", i)
		}
	}
	st = s.Stats()
	if st.PageCache.Misses <= before.Misses || st.PageCache.Evictions <= before.Evictions {
		t.Fatalf("full scan over %d pages: misses %d -> %d, evictions %d -> %d; want both to grow",
			st.BasePages, before.Misses, st.PageCache.Misses, before.Evictions, st.PageCache.Evictions)
	}
	if int64(st.PageCache.ResidentPages)*pager.PageSize > st.CacheBytes {
		t.Fatalf("resident %d pages exceeds budget %d bytes", st.PageCache.ResidentPages, st.CacheBytes)
	}

	// Updates over the cold base still commit and stay durable.
	if _, err := s.Apply([]Op{UpdateObject(1, pdf.MustUniform(0, 1)), Delete(2)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OverlaySlots; got != 1 {
		t.Fatalf("overlay depth after update+delete = %d, want 1", got)
	}
}

// openScattered opens a store under the minimum page-cache budget, inserts n
// 8-edge histograms at random positions of [0, n) — so slot (insertion)
// order is not spatial order — flattens them into the base and reopens the
// store, so every payload is behind the page cache. It returns the store and
// the encoded payload record size (length prefix included) of each object,
// by stable ID.
func openScattered(t *testing.T, n int, seed int64) (*Store, map[uint64]int) {
	t.Helper()
	s, _, ops, ids := loadScattered(t, n, seed, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
	size := make(map[uint64]int, n)
	for i, id := range ids {
		raw, err := encodeOps([]Op{{Code: codeFor(ops[i].PDF), ID: id, PDF: ops[i].PDF}})
		if err != nil {
			t.Fatal(err)
		}
		size[id] = 4 + len(raw)
	}
	if st := s.Stats(); st.BasePages*pager.PageSize <= 10*int(st.CacheBytes) {
		t.Fatalf("base of %d pages is not well past the %d-byte cache — test is vacuous", st.BasePages, st.CacheBytes)
	}
	return s, size
}

// openScatteredDir is openScattered under opt, returning the store's
// directory instead of the payload sizes.
func openScatteredDir(t *testing.T, n int, seed int64, opt Options) (*Store, string) {
	t.Helper()
	s, dir, _, _ := loadScattered(t, n, seed, opt)
	return s, dir
}

// loadScattered builds openScattered's store under opt and returns it with
// its directory, the insert ops and the IDs they were assigned.
func loadScattered(t *testing.T, n int, seed int64, opt Options) (*Store, string, []Op, []uint64) {
	t.Helper()
	s, dir := openTemp(t, opt)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		lo, w := rng.Float64()*float64(n), 1+rng.Float64()*24
		weights := make([]float64, 7)
		for j := range weights {
			weights[j] = 1 + rng.Float64()
		}
		ops[i] = InsertObject(pdf.MustHistogram(
			[]float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + 7*w/8, lo + w - w/16, lo + w - w/32, lo + w}, weights))
	}
	res := mustApply(t, s, ops...)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir, ops, res.IDs
}

// TestCheckpointClustersPayloads holds the base's payload layout: a flatten
// writes payloads in the packed index's leaf order, so a query's candidates
// — neighbours on the line — share pages, and a cold probe faults about the
// pages their payloads fill rather than one page per candidate.
func TestCheckpointClustersPayloads(t *testing.T) {
	const n, probes = 3000, 60
	s, size := openScattered(t, n, 5)
	defer s.Close()
	v := s.View()
	e, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var candidates, misses uint64
	for i := 0; i < probes; i++ {
		q := 50 + rng.Float64()*(n-100)
		ids := v.Index.Candidates(q).IDs
		bytes := 0
		for _, slot := range ids {
			bytes += size[v.IDs[slot]]
		}
		bound := uint64((bytes+pagecache.PayloadSize-1)/pagecache.PayloadSize + 2)
		before := s.Stats().PageCache.Misses
		if _, err := e.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{}); err != nil {
			t.Fatal(err)
		}
		got := s.Stats().PageCache.Misses - before
		if got > bound {
			t.Fatalf("probe q=%.1f: %d misses for %d candidates holding %d payload bytes, want <= %d",
				q, got, len(ids), bytes, bound)
		}
		candidates += uint64(len(ids))
		misses += got
	}
	if misses == 0 {
		t.Fatalf("%d probes faulted nothing — test is vacuous", probes)
	}
	t.Logf("%d probes: %.1f candidates, %.2f misses a probe", probes,
		float64(candidates)/probes, float64(misses)/probes)
}

// TestSnapshotFaultsEachPageOnce holds the replication snapshot to file
// order and off the readers' page cache: over a clustered base, walking the
// lazy payloads in slot order would fault a page per object, while the
// snapshot reads the base through the log's scanner in ref order, each page
// once, and the pool misses nothing.
func TestSnapshotFaultsEachPageOnce(t *testing.T) {
	const n = 3000
	s, _ := openScattered(t, n, 7)
	defer s.Close()
	before := s.Stats().PageCache.Misses
	res, err := s.SyncFrom(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sub.Close()
	if res.Snapshot == nil {
		t.Fatal("expected a snapshot: the checkpoint truncated the history")
	}
	st := s.Stats()
	if got := st.PageCache.Misses - before; got != 0 {
		t.Fatalf("snapshot of %d objects faulted %d pages through the pool (base has %d), want 0", n, got, st.BasePages)
	}
	// The stream is the one the view's decoded pdfs encode to.
	v := s.View()
	ops := make([]Op, v.Dataset.Len())
	for i := range ops {
		p := v.Dataset.Object(i).PDF
		ops[i] = Op{Code: codeFor(p), ID: v.IDs[i], PDF: p}
	}
	want, err := encodeCheckpoint(checkpointState{Version: v.Version, Seq: v.Seq, NextID: v.NextID, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Snapshot, want) {
		t.Fatalf("snapshot stream of %d bytes differs from the view's %d", len(res.Snapshot), len(want))
	}
}

// TestPayloadFaultAllocations holds a cold payload fault to the pdf it
// returns: the record is read into a stack buffer and decoded as its one op,
// so the allocations are the histogram's own.
func TestPayloadFaultAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n, runs = 3000, 400
	s, _ := openScattered(t, n, 9)
	defer s.Close()
	v := s.View()
	// Slot order is insertion order, which is not the leaf order the base
	// lays payloads in, so a walk over slots faults a page at nearly every
	// step under the 8-page cache.
	before, next := s.Stats().PageCache, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if v.Dataset.Object(next).PDF == nil {
			t.Fatalf("object %d faulted to nil", next)
		}
		next++
	})
	st := s.Stats().PageCache
	if misses := st.Misses - before.Misses; misses < uint64(next)*3/4 {
		t.Fatalf("%d faults missed %d times — not cold, test is vacuous", next, misses)
	}
	t.Logf("%.2f allocations a cold fault (%d faults, %d misses)", allocs, next, st.Misses-before.Misses)
	if allocs > 6 {
		t.Fatalf("a cold payload fault allocates %.2f objects, want at most 6", allocs)
	}
}

// TestCheckpointFailsOnCorruptBase flips a byte in a payload page of the
// base. The next flatten copies unchanged payloads out of that base, so it
// must fail naming the page and its byte offset — and leave checkpoint.db
// and the WAL as they were and the store serving.
func TestCheckpointFailsOnCorruptBase(t *testing.T) {
	const n = 3000
	s, _ := openScattered(t, n, 13)
	defer s.Close()
	mustApply(t, s, UpdateObject(s.View().IDs[n/2], pdf.MustUniform(1000, 1001)))

	// Page 1 is the first stream page: the payloads of the objects leftmost
	// in the packed leaf order, none of them the one just updated.
	const page = 1
	ckpt, wal := filepath.Join(s.dir, checkpointName), filepath.Join(s.dir, walName)
	raw, err := os.OpenFile(ckpt, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0x5A}, page*pager.PageSize+100); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	ckptBefore, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	err = s.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint over a corrupt base succeeded")
	}
	if want := fmt.Sprintf("page %d (byte offset %d)", page, page*pager.PageSize); !strings.Contains(err.Error(), want) {
		t.Fatalf("checkpoint error %q does not name %q", err, want)
	}
	for name, before := range map[string][]byte{ckpt: ckptBefore, wal: walBefore} {
		if after, err := os.ReadFile(name); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s changed by the failed checkpoint (%v)", filepath.Base(name), err)
		}
	}
	if _, err := os.Stat(filepath.Join(s.dir, checkpointTmp)); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left %s behind", checkpointTmp)
	}

	// The store still commits and answers queries away from the rotten page.
	mustApply(t, s, InsertObject(pdf.MustUniform(1500, 1510)))
	v := s.View()
	if v.Dataset.Len() != n+1 {
		t.Fatalf("after the failed checkpoint: %d objects, want %d", v.Dataset.Len(), n+1)
	}
	e, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e.CPNN(1505, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{}); err != nil || len(res.Candidates) == 0 {
		t.Fatalf("query after the failed checkpoint: %d candidates, %v", len(res.Candidates), err)
	}
}

// Checkpoint digests of TestCheckpointBytesStable's op sequence: the sha256
// of checkpoint.db after its first and its second flatten, and of the same
// files from page 1 on — the record stream without the header page.
const (
	stableFirstSHA  = "190ec996bfeaf1cc235bad675795b4d915b1e8149b315cc740cfa17fb2acde6e"
	stableSecondSHA = "3a2ee3e972a7c60245bd84c478fd18e6ea4b4ffc1a684fd82ea7708477bfd08b"

	stableFirstBodySHA  = "a208c21e4c7b6bae2ee92897253518cda98811efb992e5288502476223952be6"
	stableSecondBodySHA = "534aa95b5a1452b11272bf9296d13027f478568af68baf529e1bc1f0b9966a09"

	// stableAppendedSHA is TestAppendedCheckpointBytesStable's digest of
	// checkpoint.db after one appended flatten.
	stableAppendedSHA = "c811588eb5e371415368cc46b91dc12e71f608e60c4c05adec1120f6403e4bb6"
)

// TestAppendedCheckpointBytesStable holds an appended generation to its
// bytes, as TestCheckpointBytesStable holds a full rewrite. A fixed op
// sequence — updates, inserts and deletes, applied one call per commit
// group so the live index's shape is fixed too — is flattened by the WAL
// trigger onto a rewritten base, and the file must hash to the recorded
// digest: any change to the overlay's payload order, the live index dump,
// the slot table or the header slot shows here.
func TestAppendedCheckpointBytesStable(t *testing.T) {
	const n = 2000
	s, dir := openScatteredDir(t, n, 53, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(54))
	live := append([]uint64(nil), s.View().IDs...)
	for g := 0; g < 40; g++ {
		ops := make([]Op, 0, 12)
		for j := 0; j < 12; j++ {
			k := rng.Intn(len(live))
			lo, w := rng.Float64()*float64(n), 1+rng.Float64()*24
			h := pdf.MustHistogram([]float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + w}, []float64{1, 2, 3, 1})
			switch r := rng.Intn(10); {
			case r < 7:
				ops = append(ops, UpdateObject(live[k], h))
			case r < 8:
				ops = append(ops, InsertObject(pdf.MustUniform(lo, lo+w)))
			default:
				ops = append(ops, Delete(live[k]))
				live = append(live[:k], live[k+1:]...)
			}
		}
		res := mustApply(t, s, ops...)
		for j, op := range ops {
			if op.Code == OpUniform && op.ID == 0 {
				live = append(live, res.IDs[j])
			}
		}
	}
	mustAutoCheckpoint(t, s, true)
	b, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != stableAppendedSHA {
		t.Errorf("checkpoint sha256 after an appended flatten = %x, want %s", sum, stableAppendedSHA)
	}
}

// TestCheckpointBytesStable holds the paged checkpoint to its bytes. A fixed
// op sequence — histograms and uniforms, then updates, deletes and
// inserts on top of the first base — is flattened twice, so the second file
// copies unchanged payloads from the first and encodes the changed ones.
// Both files must hash to the recorded digests: any change to payload order,
// the copy, the index pack or the framing shows here. The digests from page 1
// on hold the record stream apart from the header page, so a header-only
// format change re-records the first pair and leaves the second.
func TestCheckpointBytesStable(t *testing.T) {
	const n = 3000 // ≈100 base pages: past one 64-page extent
	rng := rand.New(rand.NewSource(46))
	hist := func() pdf.PDF {
		lo, w := rng.Float64()*float64(n), 1+rng.Float64()*24
		weights := make([]float64, 7)
		for j := range weights {
			weights[j] = 1 + rng.Float64()
		}
		return pdf.MustHistogram(
			[]float64{lo, lo + w/4, lo + w/2, lo + 3*w/4, lo + 7*w/8, lo + w - w/16, lo + w - w/32, lo + w}, weights)
	}
	opt := Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 1}
	s, dir := openTemp(t, opt)
	defer s.Close()
	digest := func() (file, body string) {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		sum, bodySum := sha256.Sum256(b), sha256.Sum256(b[pager.PageSize:])
		return hex.EncodeToString(sum[:]), hex.EncodeToString(bodySum[:])
	}

	ops := make([]Op, 0, n+10)
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			lo := rng.Float64() * float64(n)
			ops = append(ops, InsertObject(pdf.MustUniform(lo, lo+1+rng.Float64()*8)))
		} else {
			ops = append(ops, InsertObject(hist()))
		}
	}
	mustApply(t, s, ops...)
	got, body := digest()
	if got != stableFirstSHA {
		t.Errorf("first checkpoint sha256 = %s, want %s", got, stableFirstSHA)
	}
	if body != stableFirstBodySHA {
		t.Errorf("first checkpoint sha256 from page 1 = %s, want %s", body, stableFirstBodySHA)
	}

	live := make([]uint64, n)
	for i := range live {
		live[i] = uint64(i + 1)
	}
	for b := 0; b < 20; b++ {
		ops = ops[:0]
		for j := 0; j < 25; j++ {
			k := rng.Intn(len(live))
			switch r := rng.Intn(10); {
			case r < 7:
				ops = append(ops, UpdateObject(live[k], hist()))
			case r < 8:
				ops = append(ops, InsertObject(hist()))
			default:
				ops = append(ops, Delete(live[k]))
				live = append(live[:k], live[k+1:]...)
			}
		}
		mustApply(t, s, ops...)
	}
	got, body = digest()
	if got != stableSecondSHA {
		t.Errorf("second checkpoint sha256 = %s, want %s", got, stableSecondSHA)
	}
	if body != stableSecondBodySHA {
		t.Errorf("second checkpoint sha256 from page 1 = %s, want %s", body, stableSecondBodySHA)
	}
}

// plantV1Golden copies testdata/checkpoint_v1.db — written once by the last
// build that had a v1 writer, from 40 randomPDF inserts of newOpScript(21)
// with IDs 1..40 at version 7 / seq 7 — into a fresh store directory.
func plantV1Golden(t *testing.T) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.db"))
	if err != nil {
		t.Fatal(err)
	}
	if string(golden[:8]) != ckptMagic {
		t.Fatalf("golden magic = %q, want %q", golden[:8], ckptMagic)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointName), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLegacyV1CheckpointUpgrade opens a store whose disk state is the old
// op-stream checkpoint format — a file an old build wrote, not one a helper
// re-creates — and verifies the first checkpoint after that upgrades the
// file to the paged format.
func TestLegacyV1CheckpointUpgrade(t *testing.T) {
	const nextID = 41
	sc := newOpScript(21)
	want := make([]pdf.PDF, 40)
	for i := range want {
		want[i] = sc.randomPDF()
	}
	checkV1 := func(t *testing.T, v *View) {
		t.Helper()
		if v.Dataset.Len() < 40 {
			t.Fatalf("v1 recovery: %d objects, want >= 40", v.Dataset.Len())
		}
		for i, w := range want {
			if v.IDs[i] != uint64(i+1) {
				t.Fatalf("slot %d holds id %d, want %d", i, v.IDs[i], i+1)
			}
			// The histogram encoding renormalizes, so payloads agree to an
			// ulp, not bit for bit; supports are exact.
			g, mid := v.Dataset.Object(i).PDF, (w.Support().Lo+w.Support().Hi)/2
			if reflect.TypeOf(g) != reflect.TypeOf(w) || g.Support() != w.Support() ||
				math.Abs(g.CDF(mid)-w.CDF(mid)) > 1e-12 {
				t.Fatalf("object %d = %#v, want %#v", i+1, g, w)
			}
		}
	}

	t.Run("checkpoint-only", func(t *testing.T) {
		dir := plantV1Golden(t)
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open v1 checkpoint: %v", err)
		}
		v := s.View()
		if v.Version != 7 || v.Seq != 7 || v.Dataset.Len() != 40 || v.NextID != nextID {
			t.Fatalf("v1 recovery: version=%d seq=%d len=%d nextID=%d", v.Version, v.Seq, v.Dataset.Len(), v.NextID)
		}
		checkV1(t, v)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.Close()

		if got := checkpointMagic(t, dir); got != ckptMagicV3 {
			t.Fatalf("checkpoint magic after upgrade = %q", got)
		}
		re, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen v2: %v", err)
		}
		defer re.Close()
		if re.View().Dataset.Len() != 40 || re.View().Version != 7 {
			t.Fatalf("v2 reopen: len=%d version=%d", re.View().Dataset.Len(), re.View().Version)
		}
		checkV1(t, re.View())
	})

	// A store killed before its first checkpoint on the new build holds the
	// v1 file plus a WAL tail committed on top of it: recovery needs both.
	t.Run("wal-tail", func(t *testing.T) {
		dir := plantV1Golden(t)
		s, err := Open(dir, Options{NoSync: true, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("open v1 checkpoint: %v", err)
		}
		res := mustApply(t, s, InsertObject(pdf.MustUniform(500, 501)), Delete(40))
		if res.IDs[0] != nextID || res.Version != 8 || res.Seq != 8 {
			t.Fatalf("commit over v1 base: %+v", res)
		}
		mustApply(t, s, InsertObject(pdf.MustUniform(600, 602)), Delete(nextID+1))
		live := s.View()
		crash := copyFiles(t, dir) // kill -9: v1 checkpoint + two WAL records
		s.Close()

		if got := checkpointMagic(t, crash); got != ckptMagic {
			t.Fatalf("crash image checkpoint magic = %q, want the untouched v1 file", got)
		}
		re, err := Open(crash, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen v1 + WAL tail: %v", err)
		}
		defer re.Close()
		sameView(t, "v1 + WAL tail", re.View(), live)
		if v := re.View(); v.Version != 9 || v.Seq != 9 || v.Dataset.Len() != 40 || v.NextID != nextID+2 {
			t.Fatalf("v1 + WAL recovery: version=%d seq=%d len=%d nextID=%d",
				v.Version, v.Seq, v.Dataset.Len(), v.NextID)
		}
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := checkpointMagic(t, crash); got != ckptMagicV3 {
			t.Fatalf("checkpoint magic after upgrade = %q", got)
		}
	})
}

// checkpointMagic returns the first eight bytes of dir's checkpoint file.
func checkpointMagic(t *testing.T, dir string) string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		t.Fatal(err)
	}
	return string(hdr)
}

// TestPagedHeaderCorruptionDetected flips bytes in the v2 header and in the
// record log; both must fail loudly at open, not load garbage.
func TestPagedHeaderCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := newOpScript(31)
	for i := 0; i < 4; i++ {
		if _, err := s.Apply(sc.batch(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, checkpointName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{0, 9, 40, 70} { // magic, version, refs — all header-CRC covered
		b := append([]byte(nil), pristine...)
		b[off] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("header corruption at %d accepted", off)
		}
	}
}
