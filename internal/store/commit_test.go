package store

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// movingFixture is the commit of the serving bench's monitor_push workload:
// 20,000 Long Beach objects (the bench's corpus seed), flattened into a base
// checkpoint, and batches of 64 updates that each move one random object by
// a N(0, 5) step and keep its length.
type movingFixture struct {
	s      *Store
	rng    *rand.Rand
	domain float64
	lo, hi []float64 // current regions, by stable ID − 1
}

const (
	movingObjects = 20_000
	movingBatch   = 64
	movingStep    = 5.0
)

func newMovingFixture(tb testing.TB) *movingFixture {
	tb.Helper()
	opt := uncertain.LongBeachOptions(20080407)
	opt.N = movingObjects
	ds, err := uncertain.GenerateUniform(opt)
	if err != nil {
		tb.Fatal(err)
	}
	load, err := DatasetOps(ds)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(tb.TempDir(), Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if _, err := s.Apply(load); err != nil {
		tb.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	f := &movingFixture{s: s, rng: rand.New(rand.NewSource(1)), domain: opt.Domain}
	for i := 0; i < ds.Len(); i++ {
		r := ds.Region(i)
		f.lo, f.hi = append(f.lo, r.Lo), append(f.hi, r.Hi)
	}
	return f
}

// batch draws the next commit. DatasetOps loads object i under stable ID i+1.
func (f *movingFixture) batch() []Op {
	ops := make([]Op, movingBatch)
	for j := range ops {
		at := f.rng.Intn(len(f.lo))
		length := f.hi[at] - f.lo[at]
		lo := min(max(f.lo[at]+f.rng.NormFloat64()*movingStep, 0), f.domain)
		f.lo[at], f.hi[at] = lo, lo+length
		ops[j] = UpdateObject(uint64(at+1), pdf.MustUniform(lo, lo+length))
	}
	return ops
}

// TestCommitAllocsTrackBatch holds a 64-move commit over 20,000 objects to
// what the batch writes: the touched 64-slot chunks of the object table, the
// R-tree paths of the moved entries (most of them rewritten in their leaf)
// and the published view. Copying most of the object table, or a full
// delete-and-reinsert per update, costs about twice the budget.
func TestCommitAllocsTrackBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	if testing.Short() {
		t.Skip("loads 20,000 objects")
	}
	f := newMovingFixture(t)
	const warm, commits = 10, 50
	batches := make([][]Op, warm+commits)
	for i := range batches {
		batches[i] = f.batch()
	}
	for _, ops := range batches[:warm] {
		if _, err := f.s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	kb, allocs := commitCost(t, f.s, batches[warm:])
	t.Logf("per commit: %.0f KB, %.0f allocations", kb, allocs)
	if kb > 450 {
		t.Errorf("a %d-move commit allocates %.0f KB, over 450 KB", movingBatch, kb)
	}
	if allocs > 900 {
		t.Errorf("a %d-move commit makes %.0f allocations, over 900", movingBatch, allocs)
	}
}

// TestCommitCostFlatInN holds a commit's cost to its batch, not to the
// dataset: n histogram objects flattened into the paged base behind a
// 256 KiB page cache, then commits of 8 random updates. A commit at
// n = 100,000 may allocate at most twice what one at n = 10,000 does, in
// count and in bytes; the difference is the R-tree's O(log n) paths. An
// O(n) copy of the object table, an accidental flatten or a full index
// rebuild per commit multiplies both by about ten.
func TestCommitCostFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	if testing.Short() {
		t.Skip("loads 110,000 objects")
	}
	var kb, allocs [2]float64
	sizes := [2]int{10_000, 100_000}
	for i, n := range sizes {
		kb[i], allocs[i] = pagedCommitCost(t, n)
		t.Logf("n=%d: %.1f KB, %.1f allocations a commit", n, kb[i], allocs[i])
	}
	if allocs[1] > 2*allocs[0] {
		t.Errorf("commit allocations scale with n: %.1f at n=%d vs %.1f at n=%d (limit 2x)",
			allocs[1], sizes[1], allocs[0], sizes[0])
	}
	if kb[1] > 2*kb[0] {
		t.Errorf("commit bytes scale with n: %.1f KB at n=%d vs %.1f KB at n=%d (limit 2x)",
			kb[1], sizes[1], kb[0], sizes[0])
	}
}

// pagedCommitCost loads n histogram objects 1–25 units long over a
// 100,000-unit domain into a store with a 256 KiB page cache, flattens them
// into the paged base, and returns the mean KB and allocations of 200
// commits of 8 updates, measured after 32 warm-up commits absorb the
// post-flatten transient.
func pagedCommitCost(t *testing.T, n int) (kb, allocs float64) {
	s, err := Open(t.TempDir(), Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const domain = 100_000.0
	rng := rand.New(rand.NewSource(1 + int64(n)))
	iv := func() (float64, float64) {
		lo := rng.Float64() * domain
		return lo, lo + 1 + rng.Float64()*24
	}
	var ids []uint64
	for off := 0; off < n; off += 512 {
		load := make([]Op, min(512, n-off))
		for i := range load {
			lo, hi := iv()
			w := make([]float64, 7)
			for j := range w {
				w[j] = 1 + rng.Float64()
			}
			load[i] = InsertObject(pdf.MustHistogram([]float64{lo, lo + (hi-lo)/4, lo + (hi-lo)/2,
				lo + 3*(hi-lo)/4, lo + 7*(hi-lo)/8, hi - (hi-lo)/16, hi - (hi-lo)/32, hi}, w))
		}
		res, err := s.Apply(load)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.IDs...)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const warm, commits = 32, 200
	batches := make([][]Op, warm+commits)
	for c := range batches {
		batches[c] = make([]Op, 8)
		for i := range batches[c] {
			lo, hi := iv()
			batches[c][i] = UpdateObject(ids[rng.Intn(len(ids))], pdf.MustUniform(lo, hi))
		}
	}
	for _, ops := range batches[:warm] {
		if _, err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	return commitCost(t, s, batches[warm:])
}

// commitCost applies each batch as one commit and returns the mean KB
// allocated and allocations made per commit.
func commitCost(t *testing.T, s *Store, batches [][]Op) (kb, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ops := range batches {
		if _, err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(batches))
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestFlattenWorkCounts holds an automatic flatten's work to the change, not
// to the dataset: n uniform objects flattened into the base, then rounds of
// Δ = 4,000 updates (500 commits of 8) with the WAL trigger set to one
// round, as in store_rw. An appended flatten copies no unchanged payload
// record and writes at most Δ payload records, one slot table and one index
// dump, in whole pages, plus one header slot; the first flatten with the
// file at twice its compacted size or more is a full rewrite.
func TestFlattenWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 110,000 objects")
	}
	for _, n := range []int{10_000, 100_000} {
		flattenWorkCounts(t, n)
	}
}

func flattenWorkCounts(t *testing.T, n int) {
	const domain, delta, batch = 100_000.0, 4000, 8
	rng := rand.New(rand.NewSource(int64(n)))
	uniform := func() pdf.PDF {
		lo := rng.Float64() * domain
		return pdf.MustUniform(lo, lo+1+rng.Float64()*24)
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointBytes: -1, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for off := 0; off < n; off += 512 {
		load := make([]Op, min(512, n-off))
		for i := range load {
			load[i] = InsertObject(uniform())
		}
		ids = append(ids, mustApply(t, s, load...).IDs...)
	}
	update := func() []Op {
		ops := make([]Op, batch)
		for i := range ops {
			ops[i] = UpdateObject(ids[rng.Intn(n)], uniform())
		}
		return ops
	}
	// Every commit of 8 uniform updates logs the same number of bytes, so
	// the trigger fires at the end of each round.
	before := s.Stats().WALAppendedBytes
	mustApply(t, s, update()...)
	perCommit := s.Stats().WALAppendedBytes - before
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{NoSync: true, CheckpointBytes: int64(perCommit) * delta / batch,
		CacheBytes: 256 << 10}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload, err := appendPayload(nil, 1, uniform())
	if err != nil {
		t.Fatal(err)
	}
	record := 4 + len(payload) // every uniform payload record's size

	appended := 0
	for round := 0; ; round++ {
		if round == 8 {
			t.Fatalf("n=%d: no full rewrite after %d appended flattens", n, appended)
		}
		st0 := s.Stats()
		wantFull := int64(st0.BasePages)*pager.PageSize >= appendLimit*st0.CompactedBytes
		for c := 0; c < delta/batch; c++ {
			mustApply(t, s, update()...)
		}
		st := s.Stats()
		if st.Checkpoints-st0.Checkpoints != 1 {
			t.Fatalf("n=%d round %d: %d flattens, want 1", n, round, st.Checkpoints-st0.Checkpoints)
		}
		written := st.FlattenBytes - st0.FlattenBytes
		if wantFull {
			if st.FullFlattens-st0.FullFlattens != 1 {
				t.Fatalf("n=%d round %d: file of %d pages, compacted %d bytes, and the flatten appended",
					n, round, st0.BasePages, st0.CompactedBytes)
			}
			if written != uint64(st.BasePages)*pager.PageSize || st.Generation != 1 {
				t.Fatalf("n=%d round %d: full rewrite wrote %d bytes of a %d-page file, generation %d",
					n, round, written, st.BasePages, st.Generation)
			}
			if appended == 0 {
				t.Fatalf("n=%d: the first automatic flatten was full", n)
			}
			t.Logf("n=%d: %d appended flattens, then a full rewrite of %d bytes", n, appended, written)
			return
		}
		if st.AppendedFlattens-st0.AppendedFlattens != 1 {
			t.Fatalf("n=%d round %d: file of %d pages, compacted %d bytes, and the flatten was full",
				n, round, st0.BasePages, st0.CompactedBytes)
		}
		appended++
		if copied := st.FlattenCopied - st0.FlattenCopied; copied != 0 {
			t.Fatalf("n=%d round %d: an appended flatten copied %d unchanged payload records", n, round, copied)
		}
		// The index the flatten dumped is the live one, unchanged since.
		tree, err := s.View().Index.Tree()
		if err != nil {
			t.Fatal(err)
		}
		var dump int
		if _, err := tree.Dump(func(_ bool, rects []geom.Rect, _ []int, _ []int64) (int64, error) {
			dump += 4 + 5 + 40*len(rects)
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
		stream := record*delta + dump + 4 + 8 + 32*n
		limit := uint64((stream+pagecache.PayloadSize-1)/pagecache.PayloadSize*pager.PageSize + hdrSlotSize)
		if written > limit {
			t.Fatalf("n=%d round %d: an appended flatten wrote %d bytes, over %d (%d payload records of %d bytes, a %d-byte dump, a %d-slot table)",
				n, round, written, limit, delta, record, dump, n)
		}
		t.Logf("n=%d round %d: appended %d bytes (limit %d) to a %d-page file", n, round, written, limit, st.BasePages)
	}
}
