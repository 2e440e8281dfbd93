package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The WAL is a flat append-only file of length-prefixed, checksummed
// records. One record carries one committed batch:
//
//	[4] payload length (LE uint32)
//	[4] CRC-32C of the payload
//	[n] payload: [8] batch sequence number, then the encoded op batch
//
// Recovery scans records in order and stops at the first record whose
// header is short, whose length runs past the file, or whose checksum
// mismatches — a torn or partially-synced tail from a crash mid-append.
// Everything before the tear is intact by CRC; the tail is discarded and the
// file truncated so future appends start from a clean boundary.

const walHeaderSize = 8

// MaxWALRecord bounds a single record (a dataset-reload batch of 53k
// histogram objects stays far below this). Exported so the replication
// wire's frame cap is derived from it, not copied.
const MaxWALRecord = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one decoded WAL record. Payload keeps the raw encoded op
// batch (the bytes after the sequence number) so replication can ship the
// exact bytes the primary committed — replaying them on a follower decodes
// to bit-identical state by construction. End is the file offset just past
// the record, which the log reader turns into cumulative byte positions.
type walRecord struct {
	Seq     uint64
	Ops     []Op
	Payload []byte
	End     int64
}

// appendWALRecord frames a batch payload into buf.
func appendWALRecord(buf []byte, seq uint64, opsPayload []byte) []byte {
	payloadLen := 8 + len(opsPayload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	crc := crc32.Update(0, crcTable, binary.LittleEndian.AppendUint64(nil, seq))
	crc = crc32.Update(crc, crcTable, opsPayload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return append(buf, opsPayload...)
}

// scanWAL reads every intact record from r. It returns the records, the byte
// offset of the first tear (== the number of valid bytes), and whether a
// torn tail was found. Records that fail to decode *after* passing the CRC
// (impossible absent bugs or deliberate corruption of both payload and
// checksum) also stop the scan, as corruption.
func scanWAL(r io.Reader) (recs []walRecord, validBytes int64, torn bool, err error) {
	br := newByteReader(r)
	for {
		start := br.off
		var hdr [walHeaderSize]byte
		n, rerr := io.ReadFull(br, hdr[:])
		if rerr == io.EOF && n == 0 {
			return recs, start, false, nil // clean end
		}
		if rerr != nil { // short header: torn tail
			return recs, start, true, nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(hdr[:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if payloadLen < 8 || payloadLen > MaxWALRecord {
			return recs, start, true, nil
		}
		payload, ok := readN(br, payloadLen)
		if !ok {
			return recs, start, true, nil // short payload: torn tail
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return recs, start, true, nil // bit rot or torn overwrite
		}
		seq := binary.LittleEndian.Uint64(payload[:8])
		ops, derr := decodeOps(payload[8:])
		if derr != nil {
			return recs, start, true, nil
		}
		recs = append(recs, walRecord{Seq: seq, Ops: ops, Payload: payload[8:], End: br.off})
	}
}

// readN reads exactly n bytes, growing the buffer chunk-wise so a corrupt
// length field costs a short read, not an n-byte allocation.
func readN(r io.Reader, n int) ([]byte, bool) {
	const chunkSize = 64 << 10
	buf := make([]byte, 0, min(n, chunkSize))
	chunk := make([]byte, chunkSize)
	for len(buf) < n {
		want := min(chunkSize, n-len(buf))
		m, err := io.ReadFull(r, chunk[:want])
		buf = append(buf, chunk[:m]...)
		if err != nil {
			return buf, false
		}
	}
	return buf, true
}

// byteReader counts consumed bytes so the scanner can report tear offsets.
type byteReader struct {
	r   io.Reader
	off int64
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.off += int64(n)
	return n, err
}

// wal is the open write-ahead log file.
type wal struct {
	f    *os.File
	size int64 // current valid length
}

// openWAL opens (creating if absent) the log at path, scans it, truncates
// any torn tail, and positions the file for appends. It returns the intact
// records and whether a tail was dropped.
func openWAL(path string) (*wal, []walRecord, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: %w", err)
	}
	recs, valid, torn, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("store: %w", err)
	}
	return &wal{f: f, size: valid}, recs, torn, nil
}

// append writes pre-framed record bytes. Durability requires a sync.
func (w *wal) append(b []byte) error {
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("store: appending WAL: %w", err)
	}
	w.size += int64(len(b))
	return nil
}

// sync forces appended records to stable storage.
func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	return nil
}

// reset empties the log after a durable checkpoint made its records
// redundant.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.size = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }
