package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pdf"
)

func openFollowerTemp(t *testing.T, opt Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenFollower(dir, opt)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	return s, dir
}

// syncInto catches f up to p in one shot: SyncFrom at the follower's
// position, install the snapshot if one came back, replay the history
// records, and close the live subscription.
func syncInto(t *testing.T, p, f *Store) *SyncResult {
	t.Helper()
	res, err := p.SyncFrom(f.View().Seq+1, 64)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	defer res.Sub.Close()
	if res.Snapshot != nil {
		if err := f.InstallSnapshot(res.Snapshot); err != nil {
			t.Fatalf("InstallSnapshot: %v", err)
		}
	}
	if len(res.Records) > 0 {
		if _, err := f.ApplyReplicated(res.Records); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
	}
	return res
}

// assertStoresEqual proves two stores hold bit-identical durable state by
// checkpointing both and comparing the checkpoint files byte for byte (they
// embed version, seq, nextID and every object's exact encoding).
func assertStoresEqual(t *testing.T, a *Store, dirA string, b *Store, dirB string) {
	t.Helper()
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint a: %v", err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatalf("checkpoint b: %v", err)
	}
	assertCheckpointFilesEqual(t, dirA, dirB)
}

// assertCheckpointFilesEqual compares the checkpoint files two store
// directories hold right now, without checkpointing either.
func assertCheckpointFilesEqual(t *testing.T, dirA, dirB string) {
	t.Helper()
	ba, err := os.ReadFile(filepath.Join(dirA, checkpointName))
	if err != nil {
		t.Fatalf("read checkpoint a: %v", err)
	}
	bb, err := os.ReadFile(filepath.Join(dirB, checkpointName))
	if err != nil {
		t.Fatalf("read checkpoint b: %v", err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("checkpoint files differ: %d vs %d bytes", len(ba), len(bb))
	}
}

func TestReplicationHistoryCatchUp(t *testing.T) {
	p, pdir := openTemp(t, Options{})
	defer p.Close()
	for i := 0; i < 5; i++ {
		mustApply(t, p,
			InsertObject(pdf.MustUniform(float64(i*10), float64(i*10+5))),
			InsertObject(pdf.MustHistogram([]float64{0, 1, 2}, []float64{1, float64(i + 1)})),
			InsertObject(pdf.MustUniform(float64(i), float64(i+1))),
		)
	}
	mustApply(t, p, Delete(1), UpdateObject(2, pdf.MustUniform(7, 9)))

	f, fdir := openFollowerTemp(t, Options{})
	defer f.Close()
	res := syncInto(t, p, f)
	if res.Snapshot != nil {
		t.Fatalf("expected pure history catch-up, got a snapshot")
	}
	if len(res.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(res.Records))
	}
	// Offsets are cumulative and the last one meets the advertised total.
	var prev uint64
	for i, r := range res.Records {
		if r.WALOffset <= prev {
			t.Fatalf("records[%d].WALOffset = %d not increasing past %d", i, r.WALOffset, prev)
		}
		prev = r.WALOffset
	}
	if prev != res.WALAppended {
		t.Fatalf("last WALOffset %d != WALAppended %d", prev, res.WALAppended)
	}
	if got := f.View(); got.Seq != res.Seq || got.Version != res.Version {
		t.Fatalf("follower at seq %d version %d, want %d/%d", got.Seq, got.Version, res.Seq, res.Version)
	}
	assertStoresEqual(t, p, pdir, f, fdir)
}

func TestReplicationLiveTail(t *testing.T) {
	p, pdir := openTemp(t, Options{})
	defer p.Close()
	f, fdir := openFollowerTemp(t, Options{})
	defer f.Close()

	res, err := p.SyncFrom(1, 64)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	defer res.Sub.Close()
	if len(res.Records) != 0 || res.Snapshot != nil {
		t.Fatalf("fresh primary should have nothing to ship: %+v", res)
	}

	for i := 0; i < 10; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	got := 0
	for d := range res.Sub.C() {
		if _, err := f.ApplyReplicated(d.Records); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
		if got += len(d.Records); got == 10 {
			break
		}
	}
	if fv := f.View(); fv.Seq != 10 || fv.Dataset.Len() != 10 {
		t.Fatalf("follower seq %d, %d objects", fv.Seq, fv.Dataset.Len())
	}
	assertStoresEqual(t, p, pdir, f, fdir)
}

func TestReplicationSnapshotBootstrap(t *testing.T) {
	p, pdir := openTemp(t, Options{})
	defer p.Close()
	// A few dozen mixed uniform/histogram objects with updates and deletes
	// between them, so slot order is not ID order.
	sc := newOpScript(5)
	for p.View().Dataset.Len() < 36 {
		mustApply(t, p, sc.batch(8)...)
	}
	// The checkpoint resets the WAL: history before it is gone.
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustApply(t, p, InsertObject(pdf.MustUniform(1, 4)))
	n := p.View().Dataset.Len()

	f, fdir := openFollowerTemp(t, Options{})
	defer f.Close()
	res, err := p.SyncFrom(1, 64)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	defer res.Sub.Close()
	if res.Snapshot == nil {
		t.Fatalf("expected snapshot bootstrap after checkpoint truncated history")
	}
	if len(res.Records) != 0 {
		t.Fatalf("snapshot result should carry no records, got %d", len(res.Records))
	}
	if err := f.InstallSnapshot(res.Snapshot); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if fv := f.View(); fv.Seq != res.Seq || fv.Dataset.Len() != n {
		t.Fatalf("after install: seq %d, %d objects", fv.Seq, fv.Dataset.Len())
	}

	// The bootstrap lands paged, before the follower checkpoints on its own:
	// a v3 file, nothing resident in the overlay, and checkpoint telemetry
	// that says a checkpoint happened.
	if got := checkpointMagic(t, fdir); got != ckptMagicV3 {
		t.Fatalf("bootstrapped checkpoint magic = %q, want %q", got, ckptMagicV3)
	}
	st := f.Stats()
	if st.OverlaySlots != 0 || st.BaseSlots != n || st.BasePages == 0 {
		t.Fatalf("bootstrapped follower: overlay %d, base %d slots, %d pages — want 0, %d, > 0",
			st.OverlaySlots, st.BaseSlots, st.BasePages, n)
	}
	if st.Checkpoints != 1 || st.LastCheckpointUnixNano <= 0 || st.CheckpointNanos == 0 || st.WALRecords != 0 {
		t.Fatalf("bootstrap checkpoint telemetry: %+v", st)
	}
	// Same seq, same bytes: the follower's file is the primary's checkpoint.
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	assertCheckpointFilesEqual(t, pdir, fdir)
	// kill -9 right after the install: the copy reopens to the same view.
	re, err := OpenFollower(copyFiles(t, fdir), Options{})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	sameView(t, "crash copy after bootstrap", re.View(), f.View())
	re.Close()

	// The live tail continues past the snapshot.
	mustApply(t, p, InsertObject(pdf.MustUniform(50, 60)))
	d := <-res.Sub.C()
	if _, err := f.ApplyReplicated(d.Records); err != nil {
		t.Fatalf("ApplyReplicated after snapshot: %v", err)
	}
	assertStoresEqual(t, p, pdir, f, fdir)
}

// A failed install must leave the follower exactly as it was — live view,
// WAL and checkpoint file — and still able to replicate.
func TestInstallSnapshotFailureLeavesFollowerUntouched(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	for i := 0; i < 3; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	f, fdir := openFollowerTemp(t, Options{})
	defer f.Close()
	syncInto(t, p, f)
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, p, InsertObject(pdf.MustUniform(7, 9)))
	syncInto(t, p, f) // follower: checkpoint at seq 3 + one WAL record

	mustApply(t, p, InsertObject(pdf.MustUniform(20, 30)))
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := p.SyncFrom(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	res.Sub.Close()

	before := f.View()
	disk := func() (ckpt, wal []byte) {
		t.Helper()
		ckpt, err := os.ReadFile(filepath.Join(fdir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		wal, err = os.ReadFile(filepath.Join(fdir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return ckpt, wal
	}
	ckpt0, wal0 := disk()
	unchanged := func(label string) {
		t.Helper()
		if f.View() != before {
			t.Fatalf("%s: live view replaced", label)
		}
		if ckpt, wal := disk(); !bytes.Equal(ckpt, ckpt0) || !bytes.Equal(wal, wal0) {
			t.Fatalf("%s: checkpoint or WAL changed on disk", label)
		}
	}

	if err := f.InstallSnapshot(res.Snapshot[:len(res.Snapshot)-3]); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("corrupt stream err = %v, want ErrOutOfSync", err)
	}
	unchanged("corrupt stream")

	// A directory squatting on the temp name fails the checkpoint write
	// before anything is renamed into place.
	tmp := filepath.Join(fdir, checkpointTmp)
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallSnapshot(res.Snapshot); err == nil {
		t.Fatal("install succeeded with an unwritable checkpoint temp file")
	}
	unchanged("checkpoint write error")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}

	// Not broken: the same snapshot installs once the obstacle is gone.
	if err := f.InstallSnapshot(res.Snapshot); err != nil {
		t.Fatalf("InstallSnapshot after failures: %v", err)
	}
	if fv := f.View(); fv.Seq != res.Seq || fv.Dataset.Len() != 5 {
		t.Fatalf("after install: seq %d, %d objects", fv.Seq, fv.Dataset.Len())
	}
}

func TestFollowerRoleEnforcement(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	f, _ := openFollowerTemp(t, Options{})
	defer f.Close()

	if p.Role() != RolePrimary || f.Role() != RoleFollower {
		t.Fatalf("roles: %v / %v", p.Role(), f.Role())
	}
	if _, err := f.Apply([]Op{InsertObject(pdf.MustUniform(0, 1))}); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower Apply err = %v, want ErrFollower", err)
	}
	if _, err := p.ApplyReplicated([]LogRecord{{Seq: 1, Version: 1}}); err == nil {
		t.Fatalf("primary ApplyReplicated should be rejected")
	}
	if err := p.InstallSnapshot(nil); err == nil {
		t.Fatalf("primary InstallSnapshot should be rejected")
	}
}

func TestApplyReplicatedOutOfSync(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	f, _ := openFollowerTemp(t, Options{})
	defer f.Close()

	res, err := p.SyncFrom(1, 64)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	defer res.Sub.Close()
	mustApply(t, p, InsertObject(pdf.MustUniform(0, 1)))
	mustApply(t, p, InsertObject(pdf.MustUniform(2, 3)))
	d1, d2 := <-res.Sub.C(), <-res.Sub.C()
	r1, r2 := d1.Records[0], d2.Records[0]

	// A gap (r2 without r1) must be rejected without mutating anything.
	if _, err := f.ApplyReplicated([]LogRecord{r2}); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("gap err = %v, want ErrOutOfSync", err)
	}
	if f.View().Seq != 0 {
		t.Fatalf("follower mutated by rejected record")
	}

	// A valid prefix before a bad record commits durably; the error and the
	// reported position tell the caller where to resync from.
	got, err := f.ApplyReplicated([]LogRecord{r1, r2, r2})
	if !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("partial err = %v, want ErrOutOfSync", err)
	}
	if got.Seq != 2 || f.View().Seq != 2 {
		t.Fatalf("prefix position = %d/%d, want 2/2", got.Seq, f.View().Seq)
	}
}

func TestInstallSnapshotRejectsBackwards(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	for i := 0; i < 3; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	old, err := p.SyncFrom(1, 8)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	old.Sub.Close()

	f, _ := openFollowerTemp(t, Options{})
	defer f.Close()
	res := syncInto(t, p, f) // follower now at seq 3
	if res.Seq != 3 {
		t.Fatalf("sync seq = %d", res.Seq)
	}
	// Regress the primary's snapshot by checkpointing an older logical state:
	// simplest is to hand the follower a snapshot taken at version 0.
	stream, err := encodeCheckpoint(checkpointState{Version: 1, Seq: 1, NextID: 2})
	if err != nil {
		t.Fatalf("encodeCheckpoint: %v", err)
	}
	if err := f.InstallSnapshot(stream); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("backwards install err = %v, want ErrOutOfSync", err)
	}
	if f.View().Seq != 3 {
		t.Fatalf("backwards install mutated the follower")
	}
}

func TestSyncFromDiverged(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	mustApply(t, p, InsertObject(pdf.MustUniform(0, 1)))
	if _, err := p.SyncFrom(10, 8); !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestFollowerResumesFromLocalWAL(t *testing.T) {
	p, pdir := openTemp(t, Options{})
	defer p.Close()
	fdir := t.TempDir()
	f, err := OpenFollower(fdir, Options{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	for i := 0; i < 6; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	syncInto(t, p, f)
	if err := f.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}

	// More primary history while the follower is down.
	mustApply(t, p, InsertObject(pdf.MustUniform(100, 101)), Delete(2))

	f, err = OpenFollower(fdir, Options{})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer f.Close()
	if f.View().Seq != 6 {
		t.Fatalf("reopened follower at seq %d, want 6 (local WAL resume)", f.View().Seq)
	}
	res := syncInto(t, p, f)
	if res.Snapshot != nil || len(res.Records) != 1 {
		t.Fatalf("resume should ship exactly the missing record, got snap=%v n=%d",
			res.Snapshot != nil, len(res.Records))
	}
	assertStoresEqual(t, p, pdir, f, fdir)
}

func TestSyncTailLagIsGap(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	res, err := p.SyncFrom(1, 2)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	for i := 0; i < 8; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	// Whatever made it through the 2-slot tail is contiguous from seq 1,
	// then a Gap marks the hole.
	n := 0
	for d := range res.Sub.C() {
		if d.Gap {
			break
		}
		for _, r := range d.Records {
			if r.Seq != uint64(n)+1 {
				t.Fatalf("tail record seq %d, want %d", r.Seq, n+1)
			}
			n++
		}
	}
	res.Sub.Close()
	if n >= 8 {
		t.Fatalf("received all %d records through a 2-slot buffer", n)
	}
	if p.Stats().FeedDropped == 0 {
		t.Fatalf("FeedDropped not counted")
	}
	// A fresh sync picks up from wherever the reader got to.
	res2, err := p.SyncFrom(uint64(n)+1, 64)
	if err != nil {
		t.Fatalf("re-sync: %v", err)
	}
	defer res2.Sub.Close()
	if len(res2.Records) != 8-n {
		t.Fatalf("re-sync shipped %d records, want %d", len(res2.Records), 8-n)
	}
}

func TestChainedFollowerSync(t *testing.T) {
	// A follower can itself serve SyncFrom — the basis for chained replicas.
	p, pdir := openTemp(t, Options{})
	defer p.Close()
	f1, _ := openFollowerTemp(t, Options{})
	defer f1.Close()
	f2, f2dir := openFollowerTemp(t, Options{})
	defer f2.Close()

	for i := 0; i < 4; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	syncInto(t, p, f1)
	syncInto(t, f1, f2)
	assertStoresEqual(t, p, pdir, f2, f2dir)
}

func TestInstallSnapshotPublishesNoRecords(t *testing.T) {
	p, _ := openTemp(t, Options{})
	defer p.Close()
	for i := 0; i < 3; i++ {
		mustApply(t, p, InsertObject(pdf.MustUniform(float64(i), float64(i+1))))
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	f, _ := openFollowerTemp(t, Options{})
	defer f.Close()
	// A downstream tail attached to the follower before the snapshot lands
	// must see a delta with no records — snapshots are holes a log stream
	// cannot express, so the tail re-syncs.
	down, err := f.SyncFrom(1, 8)
	if err != nil {
		t.Fatalf("follower SyncFrom: %v", err)
	}
	defer down.Sub.Close()
	res, err := p.SyncFrom(1, 8)
	if err != nil {
		t.Fatalf("SyncFrom: %v", err)
	}
	defer res.Sub.Close()
	if err := f.InstallSnapshot(res.Snapshot); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	d := <-down.Sub.C()
	if !d.Truncated || d.Gap || len(d.Records) != 0 || d.View.Seq != res.Seq {
		t.Fatalf("install delta: truncated %v, gap %v, %d records, seq %d — want a truncation at seq %d with no records",
			d.Truncated, d.Gap, len(d.Records), d.View.Seq, res.Seq)
	}
}
