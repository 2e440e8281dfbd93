package store

import (
	"math/rand"
	"runtime"
	"testing"

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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ops := range batches[warm:] {
		if _, err := f.s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / commits
	allocs := float64(after.Mallocs-before.Mallocs) / commits
	t.Logf("per commit: %.0f KB, %.0f allocations", kb, allocs)
	if kb > 450 {
		t.Errorf("a %d-move commit allocates %.0f KB, over 450 KB", movingBatch, kb)
	}
	if allocs > 900 {
		t.Errorf("a %d-move commit makes %.0f allocations, over 900", movingBatch, allocs)
	}
}
