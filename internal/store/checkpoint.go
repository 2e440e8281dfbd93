package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/pager"
)

// The checkpoint the store writes is the paged v3 file in paged.go. This file
// holds the two things that are older than it.
//
// The snapshot stream is how a primary ships its whole state to a follower
// that the log can no longer catch up (SyncResult.Snapshot, installed by
// InstallSnapshot):
//
//	[8] version  [8] seq  [8] nextID
//	[op batch]   — one upsert per live object, in slot order
//
// The op batch reuses the WAL encoding, so loading a snapshot is exactly
// "replay these upserts into an empty store": one code path, one set of
// invariants. It is a wire format only — the follower lands it on disk
// through the paged writer like any other checkpoint.
//
// The v1 checkpoint ("CPNNCKP1") was that same stream laid into a page file:
// page 0 the header (magic, stream length, stream CRC-32C), pages 1..k the
// stream back to back. No build writes it any more; readCheckpoint stays so
// that stores from before the paged format, and followers bootstrapped by a
// build that still persisted snapshots this way, reopen without an operator
// step. The first checkpoint after such an open rewrites the file as v3.

const (
	checkpointName = "checkpoint.db"
	checkpointTmp  = "checkpoint.db.tmp"
	walName        = "wal.log"

	ckptMagic = "CPNNCKP1"
)

// checkpointState is the decoded content of a snapshot stream (or of the v1
// checkpoint that wrapped one).
type checkpointState struct {
	Version uint64
	Seq     uint64
	NextID  uint64
	Ops     []Op
}

// encodeCheckpoint serializes the header fields and object upserts.
func encodeCheckpoint(cs checkpointState) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(nil, cs.Version)
	buf = binary.LittleEndian.AppendUint64(buf, cs.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, cs.NextID)
	ops, err := encodeOps(cs.Ops)
	if err != nil {
		return nil, err
	}
	return append(buf, ops...), nil
}

func decodeCheckpoint(b []byte) (checkpointState, error) {
	if len(b) < 24 {
		return checkpointState{}, fmt.Errorf("store: checkpoint stream of %d bytes", len(b))
	}
	cs := checkpointState{
		Version: binary.LittleEndian.Uint64(b[:8]),
		Seq:     binary.LittleEndian.Uint64(b[8:16]),
		NextID:  binary.LittleEndian.Uint64(b[16:24]),
	}
	ops, err := decodeOps(b[24:])
	if err != nil {
		return checkpointState{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	cs.Ops = ops
	return cs, nil
}

// readCheckpoint loads and verifies the v1 checkpoint in pf, whose page 0
// the caller has read into page (and reuses as a page buffer). A corrupt
// file is an error, because silently starting empty would be data loss.
func readCheckpoint(pf *pager.File, page []byte) (checkpointState, error) {
	streamLen := binary.LittleEndian.Uint64(page[8:16])
	wantCRC := binary.LittleEndian.Uint32(page[16:20])
	if maxLen := uint64(pf.NumPages()-1) * pager.PageSize; streamLen > maxLen {
		return checkpointState{}, fmt.Errorf(
			"store: corrupt checkpoint: stream of %d bytes in %d pages", streamLen, pf.NumPages())
	}
	stream := make([]byte, 0, streamLen)
	for id := pager.PageID(1); uint64(len(stream)) < streamLen; id++ {
		if err := pf.ReadPage(id, page); err != nil {
			return checkpointState{}, fmt.Errorf("store: corrupt checkpoint: %w", err)
		}
		take := min(uint64(pager.PageSize), streamLen-uint64(len(stream)))
		stream = append(stream, page[:take]...)
	}
	if crc32.Checksum(stream, crcTable) != wantCRC {
		return checkpointState{}, fmt.Errorf("store: corrupt checkpoint: checksum mismatch")
	}
	return decodeCheckpoint(stream)
}

// syncDir best-effort fsyncs a directory so a rename survives power loss.
// Errors are ignored: some filesystems reject directory syncs, and the data
// files themselves are already synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
