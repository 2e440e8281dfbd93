package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

func mustApply(t *testing.T, s *Store, ops ...Op) ApplyResult {
	t.Helper()
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return res
}

func openTemp(t *testing.T, opt Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

func TestInsertUpdateDeleteLifecycle(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()

	res := mustApply(t, s,
		InsertObject(pdf.MustUniform(0, 10)),
		InsertObject(pdf.MustUniform(5, 15)),
		InsertObject(pdf.MustHistogram([]float64{20, 21, 22}, []float64{1, 3})),
	)
	if len(res.IDs) != 3 || res.Version != 1 {
		t.Fatalf("insert result = %+v", res)
	}
	a, b, c := res.IDs[0], res.IDs[1], res.IDs[2]
	if a == 0 || b == 0 || c == 0 || a == b || b == c {
		t.Fatalf("assigned ids = %v", res.IDs)
	}
	v := s.View()
	if v.Dataset.Len() != 3 || v.Version != 1 {
		t.Fatalf("view: %d objects version %d", v.Dataset.Len(), v.Version)
	}

	// Update b, delete a.
	res = mustApply(t, s, UpdateObject(b, pdf.MustUniform(100, 110)), Delete(a))
	if res.Version != 2 {
		t.Fatalf("version = %d, want 2", res.Version)
	}
	v = s.View()
	if v.Dataset.Len() != 2 {
		t.Fatalf("after delete: %d objects", v.Dataset.Len())
	}
	// The updated region must be visible through the view.
	found := false
	for slot, id := range v.IDs {
		if id == b {
			found = true
			sup := v.Dataset.Object(slot).Region()
			if sup.Lo != 100 || sup.Hi != 110 {
				t.Fatalf("object %d region = %+v after update", b, sup)
			}
		}
		if id == a {
			t.Fatalf("deleted object %d still in view", a)
		}
	}
	if !found {
		t.Fatalf("object %d missing from view", b)
	}
}

func TestUnknownIDAndInvalidOps(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()
	mustApply(t, s, InsertObject(pdf.MustUniform(0, 1)))

	if _, err := s.Apply([]Op{Delete(999)}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("delete unknown: %v", err)
	}
	if _, err := s.Apply([]Op{UpdateObject(999, pdf.MustUniform(0, 1))}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("update unknown: %v", err)
	}
	if _, err := s.Apply(nil); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := s.Apply([]Op{{Code: OpUniform}}); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("nil pdf: %v", err)
	}
	// 2-D disks are not stored: a disk upsert is an unknown op.
	if _, err := s.Apply([]Op{{Code: OpDisk}}); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("disk upsert: %v", err)
	}
	// A failed batch must not have mutated anything.
	if v := s.View(); v.Dataset.Len() != 1 || v.Version != 1 {
		t.Fatalf("state leaked from failed batches: %d objects version %d", v.Dataset.Len(), v.Version)
	}
}

func TestBatchAtomicity(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()
	res := mustApply(t, s, InsertObject(pdf.MustUniform(0, 1)))

	// Second op is invalid: the whole batch must be rejected.
	_, err := s.Apply([]Op{
		InsertObject(pdf.MustUniform(5, 6)),
		Delete(res.IDs[0] + 100),
	})
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v", err)
	}
	if v := s.View(); v.Dataset.Len() != 1 {
		t.Fatalf("partial batch applied: %d objects", v.Dataset.Len())
	}
}

func TestTruncateAndDatasetOps(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()
	mustApply(t, s,
		InsertObject(pdf.MustUniform(0, 1)),
		InsertObject(pdf.MustUniform(2, 3)),
	)

	ds := mustDataset(t, 10, 7)
	ops, err := DatasetOps(ds)
	if err != nil {
		t.Fatalf("DatasetOps: %v", err)
	}
	res := mustApply(t, s, ops...)
	v := s.View()
	if v.Dataset.Len() != 10 {
		t.Fatalf("after reload: %d objects", v.Dataset.Len())
	}
	if res.Version != 2 {
		t.Fatalf("version = %d", res.Version)
	}
	// Stable IDs keep growing: a reload never reuses IDs.
	for _, id := range v.IDs {
		if id <= 2 {
			t.Fatalf("reload reused stable id %d", id)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := mustApply(t, s,
		InsertObject(pdf.MustUniform(3, 9)),
		InsertObject(pdf.MustHistogram([]float64{0, 1, 2, 3}, []float64{1, 2, 1})),
	)
	mustApply(t, s, UpdateObject(res.IDs[0], pdf.MustUniform(30, 90)))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	v := re.View()
	if v.Version != 2 || v.Dataset.Len() != 2 {
		t.Fatalf("recovered view: version %d, %d objects", v.Version, v.Dataset.Len())
	}
	slot := slotOfID(t, v, res.IDs[0])
	if sup := v.Dataset.Object(slot).Region(); sup.Lo != 30 || sup.Hi != 90 {
		t.Fatalf("recovered region %+v", sup)
	}

	// Versions stay monotonic across the restart.
	res2 := mustApply(t, re, InsertObject(pdf.MustUniform(0, 1)))
	if res2.Version != 3 {
		t.Fatalf("post-restart version = %d, want 3", res2.Version)
	}
}

func TestCheckpointThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := mustApply(t, s,
		InsertObject(pdf.MustUniform(0, 10)),
		InsertObject(pdf.MustUniform(20, 30)),
	).IDs
	if got := s.Stats().WALRecords; got != 1 {
		t.Fatalf("WALRecords = %d before checkpoint, want 1", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := s.Stats().WALBytes; got != 0 {
		t.Fatalf("WAL not reset after checkpoint: %d bytes", got)
	}
	if got := s.Stats().WALRecords; got != 0 {
		t.Fatalf("WALRecords = %d after checkpoint, want 0", got)
	}
	// Post-checkpoint mutations land in the (fresh) WAL.
	mustApply(t, s, Delete(ids[0]))
	if got := s.Stats().WALRecords; got != 1 {
		t.Fatalf("WALRecords = %d after post-checkpoint batch, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	v := re.View()
	// Two committed batches (insert pair, delete); checkpoints do not bump.
	if v.Version != 2 || v.Dataset.Len() != 1 {
		t.Fatalf("recovered: version %d, %d objects", v.Version, v.Dataset.Len())
	}
	if v.IDs[0] != ids[1] {
		t.Fatalf("survivor id = %d, want %d", v.IDs[0], ids[1])
	}
	// The reopened store recovers the checkpoint's seq, so the replayed WAL
	// tail is counted from there.
	if got := re.Stats().WALRecords; got != 1 {
		t.Fatalf("WALRecords = %d after reopen, want 1", got)
	}
}

func TestConcurrentApplyGroupCommit(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lo := float64(w*1000 + i)
				if _, err := s.Apply([]Op{InsertObject(pdf.MustUniform(lo, lo+1))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v := s.View()
	if v.Dataset.Len() != writers*perWriter {
		t.Fatalf("%d objects, want %d", v.Dataset.Len(), writers*perWriter)
	}
	if v.Version != writers*perWriter {
		t.Fatalf("version %d, want %d", v.Version, writers*perWriter)
	}
	st := s.Stats()
	if st.OpsApplied != writers*perWriter {
		t.Fatalf("ops applied %d", st.OpsApplied)
	}
	// Stable IDs must be unique.
	seen := map[uint64]bool{}
	for _, id := range v.IDs {
		if seen[id] {
			t.Fatalf("duplicate stable id %d", id)
		}
		seen[id] = true
	}
}

func TestDirLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second opener: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock; reopening succeeds.
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	re.Close()
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s, _ := openTemp(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{InsertObject(pdf.MustUniform(0, 1))}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	s, dir := openTemp(t, Options{CheckpointBytes: 256})
	defer s.Close()
	for i := 0; i < 20; i++ {
		mustApply(t, s, InsertObject(pdf.MustUniform(float64(i), float64(i)+1)))
	}
	if st := s.Stats(); st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint after %d bytes appended", st.WALAppendedBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
}

// TestViewImmutableUnderWrites holds an old view across commits and verifies
// its dataset and index answers do not change (MVCC isolation).
func TestViewImmutableUnderWrites(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	var ops []Op
	for i := 0; i < 200; i++ {
		lo := rng.Float64() * 100
		ops = append(ops, InsertObject(pdf.MustUniform(lo, lo+1+rng.Float64())))
	}
	mustApply(t, s, ops...)

	old := s.View()
	oldRes := old.Index.Candidates(50)
	oldLen := old.Dataset.Len()

	// Heavy churn: delete half, insert new, update some.
	for i := 0; i < 50; i++ {
		id := old.IDs[rng.Intn(len(old.IDs))]
		if _, ok := lookup(old, id); ok {
			s.Apply([]Op{Delete(id)}) // may fail if already deleted; ignore
		}
		lo := rng.Float64() * 100
		mustApply(t, s, InsertObject(pdf.MustUniform(lo, lo+1)))
	}

	if old.Dataset.Len() != oldLen {
		t.Fatal("old view dataset changed size")
	}
	again := old.Index.Candidates(50)
	if fmt.Sprint(again) != fmt.Sprint(oldRes) {
		t.Fatalf("old view candidates changed: %v -> %v", oldRes, again)
	}
}

// TestEngineOverView runs a real C-PNN through an engine wrapped around a
// store view and cross-checks against an engine built from scratch.
func TestEngineOverView(t *testing.T) {
	s, _ := openTemp(t, Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	var ops []Op
	for i := 0; i < 150; i++ {
		lo := rng.Float64() * 500
		ops = append(ops, InsertObject(pdf.MustUniform(lo, lo+2+5*rng.Float64())))
	}
	res := mustApply(t, s, ops...)
	mustApply(t, s, Delete(res.IDs[3]), Delete(res.IDs[77]),
		UpdateObject(res.IDs[10], pdf.MustUniform(250, 260)))

	v := s.View()
	incEng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		t.Fatal(err)
	}
	bulkEng, err := core.NewEngine(v.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, q := range []float64{100, 250, 251, 400} {
		a, err := incEng.CPNN(q, c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := bulkEng.CPNN(q, c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Answers) != fmt.Sprint(b.Answers) {
			t.Fatalf("q=%g: view-engine answers %v != bulk answers %v", q, a.Answers, b.Answers)
		}
	}
}

func lookup(v *View, id uint64) (int, bool) {
	for slot, got := range v.IDs {
		if got == id {
			return slot, true
		}
	}
	return 0, false
}

func slotOfID(t *testing.T, v *View, id uint64) int {
	t.Helper()
	slot, ok := lookup(v, id)
	if !ok {
		t.Fatalf("id %d not in view", id)
	}
	return slot
}

func mustDataset(t *testing.T, n int, seed int64) *uncertain.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pdfs := make([]pdf.PDF, n)
	for i := range pdfs {
		lo := rng.Float64() * 100
		pdfs[i] = pdf.MustUniform(lo, lo+1+rng.Float64()*4)
	}
	return uncertain.NewDataset(pdfs)
}
