package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/verify"
)

// testdata/disks_v2 is a store directory written once by the last build that
// stored 2-D disks next to the 1-D objects:
//
//   - checkpoint.db: a v2 checkpoint of 60 1-D objects and the disks 31, 32,
//     33, 64 and 65 in its disk table;
//   - wal.log: three batches on top of it that mix 1-D inserts, updates and
//     deletes with a disk insert (67), its update and its delete, a delete
//     of the checkpointed disk 31, an update of disk 64 and a last disk
//     insert (69), so NextID is 70;
//   - snapshot.bin: that primary's replication snapshot stream at the end,
//     whose op batch holds an upsert per live disk after the 1-D objects.
//
// The build that wrote it held 60 1-D objects and 5 disks at version 5, and
// its 1-D content and answers hashed to fixtureSHA (fixtureDigest) both after
// an open of the directory and after a follower installed the snapshot.
// Tests may no longer encode a disk, so every disk case reads its bytes from
// here.
const (
	fixtureSHA    = "4b5ed2c492b12803b82feff48963e2de736c612c585e86d53e3e5cf8b7e24165"
	fixtureDisks  = 5
	fixtureNextID = 70
)

// plantDiskCheckpoint copies only testdata/disks_v2's checkpoint into a fresh
// store directory: the position a follower of the fixture's primary held
// before the WAL tail was shipped to it.
func plantDiskCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	copyFixture(t, dir, checkpointName)
	return dir
}

// plantDiskFixture copies testdata/disks_v2's checkpoint and WAL into a fresh
// store directory and returns it with the snapshot stream.
func plantDiskFixture(t *testing.T) (dir string, snapshot []byte) {
	t.Helper()
	dir = plantDiskCheckpoint(t)
	copyFixture(t, dir, walName)
	snapshot, err := os.ReadFile(filepath.Join("testdata", "disks_v2", "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, snapshot
}

func copyFixture(t *testing.T, dir, name string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "disks_v2", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixtureDigest hashes a view's 1-D content and answers: its position, every
// slot's stable ID and encoded payload, and the candidates (stable ID, bound
// bits, status) of C-PNN queries across the domain.
func fixtureDigest(t *testing.T, v *View) string {
	t.Helper()
	h := sha256.New()
	put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	put(v.Version)
	put(v.Seq)
	put(v.NextID)
	for slot, id := range v.IDs {
		b, err := appendOp(nil, UpdateObject(id, v.Dataset.Object(slot).PDF))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	e, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		t.Fatal(err)
	}
	dom := v.Dataset.Domain()
	for i := 0; i <= 16; i++ {
		q := dom.Lo + float64(i)/16*(dom.Hi-dom.Lo)
		res, err := e.CPNN(q, verify.Constraint{P: 0.3, Delta: 0.01}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(res.Candidates)))
		for _, a := range res.Candidates {
			put(v.IDs[a.ID])
			put(math.Float64bits(a.Bounds.L))
			put(math.Float64bits(a.Bounds.U))
			put(uint64(a.Status))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fixtureRecords reads the fixture's WAL tail as replication records.
func fixtureRecords(t *testing.T) []LogRecord {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "disks_v2", walName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, torn, err := scanWAL(f)
	if err != nil || torn || len(recs) != 3 {
		t.Fatalf("fixture WAL: %d records, torn=%v, %v", len(recs), torn, err)
	}
	out := make([]LogRecord, len(recs))
	for i, r := range recs {
		// The fixture's store never installed a snapshot: version = seq.
		out[i] = LogRecord{Seq: r.Seq, Version: r.Seq, Payload: r.Payload}
	}
	return out
}

// TestDiskFixture opens the fixture directory (checkpoint plus WAL tail) and
// installs its snapshot on a follower. Both serve the 1-D objects exactly as
// the build that wrote them did, drop its 5 live disks, and keep every
// disk's ID taken.
func TestDiskFixture(t *testing.T) {
	dir, snapshot := plantDiskFixture(t)

	s, err := Open(dir, Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := s.View()
	if v.Version != 5 || v.Dataset.Len() != 60 || v.NextID != fixtureNextID {
		t.Fatalf("open: version=%d len=%d nextID=%d", v.Version, v.Dataset.Len(), v.NextID)
	}
	if got := s.Stats().DroppedDisks; got != fixtureDisks {
		t.Errorf("open: dropped %d disks, want %d", got, fixtureDisks)
	}
	if got := fixtureDigest(t, v); got != fixtureSHA {
		t.Errorf("open: 1-D digest %s, want %s", got, fixtureSHA)
	}
	// Disk 69 was the last ID the old build assigned.
	res := mustApply(t, s, InsertObject(pdf.MustUniform(10, 12)))
	if res.IDs[0] != fixtureNextID {
		t.Errorf("open: next insert took ID %d, want %d", res.IDs[0], fixtureNextID)
	}
	// A client cannot address a dropped disk: it is not a live object.
	if _, err := s.Apply([]Op{Delete(32)}); !errors.Is(err, ErrUnknownID) {
		t.Errorf("delete of a dropped disk: %v, want ErrUnknownID", err)
	}

	f, err := OpenFollower(t.TempDir(), Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InstallSnapshot(snapshot); err != nil {
		t.Fatal(err)
	}
	fv := f.View()
	if fv.Version != 5 || fv.Dataset.Len() != 60 || fv.NextID != fixtureNextID {
		t.Fatalf("install: version=%d len=%d nextID=%d", fv.Version, fv.Dataset.Len(), fv.NextID)
	}
	if got := f.Stats().DroppedDisks; got != fixtureDisks {
		t.Errorf("install: dropped %d disks, want %d", got, fixtureDisks)
	}
	if got := fixtureDigest(t, fv); got != fixtureSHA {
		t.Errorf("install: 1-D digest %s, want %s", got, fixtureSHA)
	}
}

// TestDiskFixtureReplicated ships the fixture's WAL tail to a follower that
// recovered only its checkpoint, as an older primary would. The disk ops
// drop without publishing a change, the 1-D answers match the fixture's,
// and the follower keeps the dropped IDs so a later delete of one is a
// no-op — until a restart after its flatten has forgotten them, when the
// same delete must fail loudly.
func TestDiskFixtureReplicated(t *testing.T) {
	dir := plantDiskCheckpoint(t)
	opt := Options{NoSync: true, CheckpointBytes: -1}
	f, err := OpenFollower(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().DroppedDisks; got != fixtureDisks {
		t.Errorf("checkpoint: dropped %d disks, want %d", got, fixtureDisks)
	}
	sub, err := f.Watch(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(fixtureRecords(t)); err != nil {
		t.Fatal(err)
	}
	var changes []string
	for _, ch := range (<-sub.C()).Changes {
		changes = append(changes, fmt.Sprintf("%s %d", ch.Kind, ch.ID))
	}
	sub.Close()
	if want := "[insert 66 update 5 delete 10 insert 68 update 40]"; fmt.Sprint(changes) != want {
		t.Errorf("replicated changes %v, want only the 1-D ops' %s", changes, want)
	}
	if got := fixtureDigest(t, f.View()); got != fixtureSHA {
		t.Errorf("replicated: 1-D digest %s, want %s", got, fixtureSHA)
	}
	if got := f.Stats().DroppedDisks; got != fixtureDisks {
		t.Errorf("replicated: dropped %d disks, want %d", got, fixtureDisks)
	}

	deleteDisk := func(seq, id uint64) error {
		payload, err := EncodeOps([]Op{Delete(id)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.ApplyReplicated([]LogRecord{{Seq: seq, Version: seq, Payload: payload}})
		return err
	}
	if err := deleteDisk(6, 32); err != nil {
		t.Fatalf("delete of a dropped disk: %v", err)
	}
	if got := f.Stats().DroppedDisks; got != fixtureDisks-1 {
		t.Errorf("after the delete: dropped %d disks, want %d", got, fixtureDisks-1)
	}

	// The flatten writes an empty disk table, so the reopened follower no
	// longer knows disk 33.
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = OpenFollower(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Stats().DroppedDisks; got != 0 {
		t.Errorf("after flatten and reopen: dropped %d disks, want 0", got)
	}
	if err := deleteDisk(7, 33); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("delete of a forgotten disk: %v, want ErrUnknownID", err)
	}
	if v := f.View(); v.Seq != 6 {
		t.Fatalf("the failed record moved the follower to seq %d", v.Seq)
	}
	if err := deleteDisk(7, 1); !errors.Is(err, ErrBroken) {
		t.Fatalf("after the failed apply: %v, want ErrBroken", err)
	}
}
