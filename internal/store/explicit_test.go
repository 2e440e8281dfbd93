package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pdf"
)

// TestExplicitIDs covers the shard-member mode: with Options.ExplicitIDs an
// upsert addressing an unknown non-zero ID inserts (the router owns
// assignment), the ID counter tracks the highest explicit ID durably across
// reopen, and the default mode still rejects unknown IDs.
func TestExplicitIDs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, ExplicitIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{
		UpdateObject(5, pdf.MustUniform(0, 1)),
		UpdateObject(9, pdf.MustHistogram([]float64{1, 2, 3}, []float64{1, 2})),
	}); err != nil {
		t.Fatalf("explicit upsert-insert: %v", err)
	}
	v := s.View()
	if v.Dataset.Len() != 2 || v.IDs[0] != 5 || v.IDs[1] != 9 {
		t.Fatalf("explicit inserts mis-stored: ids=%v", v.IDs)
	}
	if v.NextID != 10 {
		t.Fatalf("counter after explicit ID 9: NextID = %d, want 10", v.NextID)
	}
	// An explicit upsert on a KNOWN ID is still an update, not a duplicate.
	if _, err := s.Apply([]Op{UpdateObject(5, pdf.MustUniform(2, 3))}); err != nil {
		t.Fatal(err)
	}
	if n := s.View().Dataset.Len(); n != 2 {
		t.Fatalf("explicit update duplicated the object: %d live", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The bumped counter is durable: the next zero-ID insert continues past
	// the highest explicit ID.
	s, err = Open(dir, Options{NoSync: true, ExplicitIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.View().NextID; got != 10 {
		t.Fatalf("recovered NextID = %d, want 10", got)
	}
	res, err := s.Apply([]Op{InsertObject(pdf.MustUniform(4, 5))})
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != 10 {
		t.Fatalf("post-recovery insert got ID %d, want 10", res.IDs[0])
	}

	// Default mode keeps rejecting unknown IDs.
	s2, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Apply([]Op{UpdateObject(5, pdf.MustUniform(0, 1))}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("default mode accepted unknown ID: %v", err)
	}
}

// TestEncodeOpsRoundTrip checks the exported wire encoding: EncodeOps and
// DecodeOps are inverses and pdfs survive bit-exactly. A disk upsert from an
// older build's snapshot stream still decodes, but no build encodes one.
func TestEncodeOpsRoundTrip(t *testing.T) {
	ops := []Op{
		Truncate(),
		{Code: OpUniform, ID: 1, PDF: pdf.MustUniform(0.1, 10.7)},
		{Code: OpHist, ID: 2, PDF: pdf.MustHistogram([]float64{0, 1, 2}, []float64{1, 3})},
		Delete(2),
	}
	payload, err := EncodeOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOps(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip returned %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Code != ops[i].Code || got[i].ID != ops[i].ID {
			t.Fatalf("op %d mangled: %+v vs %+v", i, got[i], ops[i])
		}
	}
	u := got[1].PDF.Support()
	if u.Lo != 0.1 || u.Hi != 10.7 {
		t.Fatalf("uniform support mangled: %+v", u)
	}
	if _, err := DecodeOps(payload[:len(payload)-2]); err == nil {
		t.Fatal("truncated payload decoded")
	}

	_, snapshot := plantDiskFixture(t)
	old, err := DecodeOps(snapshot[24:])
	if err != nil {
		t.Fatal(err)
	}
	var disks []uint64
	for _, op := range old {
		if op.Code == OpDisk {
			disks = append(disks, op.ID)
		}
	}
	if fmt.Sprint(disks) != "[65 32 33 64 69]" {
		t.Fatalf("fixture snapshot decodes disks %v", disks)
	}
	if _, err := EncodeOps(old); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("re-encoding a batch with a disk: %v, want ErrInvalidOp", err)
	}
}
