package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// testdata/appended_v3 is a store directory written once by the last build
// whose checkpoint stored the R-tree next to the slot table (v3, magic
// "CPNNCKP3"): 240 uniform and histogram objects, a seventh of them centred
// on one of 20 shared points, inserted in three commits and flattened by a
// full rewrite (generation 1); then six commits of ten updates, three
// deletes and two inserts each, appended by the WAL trigger's flatten as
// generation 2. Its WAL is empty.
//
// The build that wrote it served 234 objects at version 9 whose IDs hashed
// to appendedV3IDsSHA and whose content and C-PNN answers hashed to
// appendedV3SHA (fixtureDigest).
const (
	appendedV3SHA    = "0ef617b7f87797b28adbb07b8be959140d206da9369a62ca5882f0e25122a699"
	appendedV3IDsSHA = "0712749d0861e5ffc3c7340c0c73bed6c4fbf6f80fc40272d13b1200fbab0fe0"
	appendedV3NextID = 253
)

// TestAppendedV3Fixture opens testdata/appended_v3 and expects the objects,
// IDs and answers of the build that wrote it, from the live (appended)
// generation, and a clean deep check of that generation.
func TestAppendedV3Fixture(t *testing.T) {
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
	v := s.View()
	if v.Version != 9 || v.Seq != 9 || v.Dataset.Len() != 234 || v.NextID != appendedV3NextID {
		t.Fatalf("open: version=%d seq=%d len=%d nextID=%d", v.Version, v.Seq, v.Dataset.Len(), v.NextID)
	}
	if st := s.Stats(); st.Generation != 2 {
		t.Fatalf("open: generation %d, want 2", st.Generation)
	}
	h := sha256.New()
	for _, id := range v.IDs {
		h.Write(binary.LittleEndian.AppendUint64(nil, id))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != appendedV3IDsSHA {
		t.Errorf("open: IDs digest %s, want %s", got, appendedV3IDsSHA)
	}
	if got := fixtureDigest(t, v); got != appendedV3SHA {
		t.Errorf("open: digest %s, want %s", got, appendedV3SHA)
	}
	if c, err := s.CheckBase(); err != nil || c.Generation != 2 || c.Slots != 234 {
		t.Fatalf("CheckBase = %+v, %v", c, err)
	}
}
