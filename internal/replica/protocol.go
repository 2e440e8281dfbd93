// Package replica ships the store's write-ahead log over the network:
// a primary-side Server streams committed WAL records (history plus live
// tail) to follower-side Followers, which replay the exact payload bytes
// into their own stores — so a caught-up follower is bit-identical to the
// primary by construction, not by convention.
//
// The wire protocol is a flat stream of checksummed frames over one TCP
// connection per follower:
//
//	[1] frame type
//	[4] payload length (LE uint32)
//	[4] CRC-32C of the payload
//	[n] payload
//
// The follower opens with a Hello carrying the sequence it wants to resume
// from; the primary answers with a Welcome pinning the catch-up target, then
// either a Snapshot (full snapshot stream, when its log no longer reaches
// back that far) or nothing, followed by Record frames — history first, live
// tail after — and periodic Heartbeats that carry the primary's position so
// the follower can measure lag even when no writes happen.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/store"
)

const protoMagic = "CPNNREP1"

type frameType uint8

const (
	frameHello frameType = iota + 1
	frameWelcome
	frameRecord
	frameSnapshot
	frameHeartbeat
	frameError
)

// frameHeaderSize is type + length + CRC.
const frameHeaderSize = 9

// maxFramePayload bounds one frame: the largest legal WAL record plus
// framing headroom.
const maxFramePayload = store.MaxWALRecord + 64

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame reports a frame that failed structural or checksum validation;
// the stream cannot be trusted past it and the connection is dropped.
var errBadFrame = errors.New("replica: corrupt frame")

// writeFrame frames and writes one message. The caller serializes writers.
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads and verifies one frame.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	t := frameType(hdr[0])
	if t < frameHello || t > frameError {
		return 0, nil, fmt.Errorf("%w: unknown type %d", errBadFrame, hdr[0])
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d-byte payload", errBadFrame, n)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[5:9])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: short payload: %v", errBadFrame, err)
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	return t, payload, nil
}

// helloMsg opens a replication stream.
type helloMsg struct {
	// FromSeq is the first sequence the follower wants (last applied + 1).
	FromSeq uint64
}

func (m helloMsg) encode() []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, protoMagic...)
	return binary.LittleEndian.AppendUint64(buf, m.FromSeq)
}

func decodeHello(b []byte) (helloMsg, error) {
	if len(b) != 16 || string(b[:8]) != protoMagic {
		return helloMsg{}, fmt.Errorf("%w: bad hello", errBadFrame)
	}
	return helloMsg{FromSeq: binary.LittleEndian.Uint64(b[8:])}, nil
}

// positionMsg is the common primary-position block of Welcome and Heartbeat
// frames: where the primary is and when it said so.
type positionMsg struct {
	Seq, Version uint64
	// WALAppended is the primary's cumulative appended-WAL-bytes counter,
	// the byte-lag yardstick matching store.LogRecord.WALOffset.
	WALAppended uint64
	// UnixNano is the primary's clock at send time (informational; lag
	// seconds are computed follower-side to avoid clock skew).
	UnixNano int64
}

func (m positionMsg) encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.WALAppended)
	return binary.LittleEndian.AppendUint64(buf, uint64(m.UnixNano))
}

func decodePosition(b []byte) (positionMsg, []byte, error) {
	if len(b) < 32 {
		return positionMsg{}, nil, fmt.Errorf("%w: short position", errBadFrame)
	}
	return positionMsg{
		Seq:         binary.LittleEndian.Uint64(b[0:8]),
		Version:     binary.LittleEndian.Uint64(b[8:16]),
		WALAppended: binary.LittleEndian.Uint64(b[16:24]),
		UnixNano:    int64(binary.LittleEndian.Uint64(b[24:32])),
	}, b[32:], nil
}

// welcomeMsg answers a hello: the primary's position (the follower's
// catch-up target) plus the HTTP address writes should be redirected to.
type welcomeMsg struct {
	positionMsg
	HTTPAddr string
}

func (m welcomeMsg) encode() []byte {
	buf := m.positionMsg.encode(make([]byte, 0, 32+len(m.HTTPAddr)))
	return append(buf, m.HTTPAddr...)
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	pos, rest, err := decodePosition(b)
	if err != nil {
		return welcomeMsg{}, err
	}
	return welcomeMsg{positionMsg: pos, HTTPAddr: string(rest)}, nil
}

// recordMsg carries one committed WAL record's exact payload bytes.
type recordMsg struct {
	Seq, Version uint64
	WALOffset    uint64
	Payload      []byte
}

func (m recordMsg) encode() []byte {
	buf := make([]byte, 0, 24+len(m.Payload))
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.WALOffset)
	return append(buf, m.Payload...)
}

func decodeRecord(b []byte) (recordMsg, error) {
	if len(b) < 24 {
		return recordMsg{}, fmt.Errorf("%w: short record", errBadFrame)
	}
	return recordMsg{
		Seq:       binary.LittleEndian.Uint64(b[0:8]),
		Version:   binary.LittleEndian.Uint64(b[8:16]),
		WALOffset: binary.LittleEndian.Uint64(b[16:24]),
		Payload:   b[24:],
	}, nil
}

// snapshotMsg bootstraps a follower whose requested history is gone: a full
// snapshot stream covering the primary state through Seq/Version.
type snapshotMsg struct {
	Seq, Version uint64
	WALAppended  uint64
	Stream       []byte
}

func (m snapshotMsg) encode() []byte {
	buf := make([]byte, 0, 24+len(m.Stream))
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.WALAppended)
	return append(buf, m.Stream...)
}

func decodeSnapshot(b []byte) (snapshotMsg, error) {
	if len(b) < 24 {
		return snapshotMsg{}, fmt.Errorf("%w: short snapshot", errBadFrame)
	}
	return snapshotMsg{
		Seq:         binary.LittleEndian.Uint64(b[0:8]),
		Version:     binary.LittleEndian.Uint64(b[8:16]),
		WALAppended: binary.LittleEndian.Uint64(b[16:24]),
		Stream:      b[24:],
	}, nil
}
