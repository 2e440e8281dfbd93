// Package store is the durable mutation subsystem of the C-PNN engine: a
// write-ahead log of object-level operations (insert/update/delete of 1-D
// uncertain objects, plus whole-dataset truncation), group
// committed and fsync'd, with periodic checkpoints serialized through the
// pager's page-granular files. Recovery replays the WAL over the latest
// checkpoint; torn or corrupt tail records are detected by per-record
// checksums and dropped, never applied.
//
// On top of the log the store maintains MVCC copy-on-write views: every
// committed batch produces a new immutable View — a dense dataset, the
// stable-ID mapping, and an incrementally-maintained filter index (the
// R-tree is cloned and the batch's inserts/deletes are replayed onto the
// copy, with bulk-rebuild amortization for large batches). Readers hold a
// view for as long as they like; the committed version number is monotonic
// across restarts, so snapshot-versioned caches invalidate for free.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/pdf"
)

// OpCode identifies a logged operation.
type OpCode uint8

const (
	// OpTruncate removes every object in one step; a bulk dataset reload is
	// logged as a truncate followed by inserts.
	OpTruncate OpCode = 1
	// OpDelete removes one object by stable ID.
	OpDelete OpCode = 2
	// OpUniform upserts a 1-D object with a uniform pdf.
	OpUniform OpCode = 3
	// OpHist upserts a 1-D object with a histogram pdf.
	OpHist OpCode = 4
	// OpDisk upserted a 2-D disk in builds that stored them. No build
	// writes it any more; logs and snapshot streams from those builds still
	// hold it, so decodeOp parses it and applyDecoded drops the disk.
	OpDisk OpCode = 5
)

// Op is one object-level operation. Upserts with ID zero are inserts: the
// store assigns the next stable ID at commit time and the WAL records the
// assigned value, so replay is deterministic. Upserts with a non-zero ID
// update an existing object (applying to a missing ID is rejected).
type Op struct {
	// Code selects the operation.
	Code OpCode
	// ID is the stable object ID; zero on an insert until commit assigns it.
	ID uint64
	// PDF carries the object pdf of OpUniform/OpHist upserts. Only pdf
	// kinds with a durable encoding are accepted: pdf.Uniform and
	// *pdf.Histogram.
	PDF pdf.PDF
}

// InsertObject returns the op inserting a new 1-D object with pdf p.
func InsertObject(p pdf.PDF) Op { return Op{Code: codeFor(p), PDF: p} }

// UpdateObject returns the op replacing object id's pdf with p.
func UpdateObject(id uint64, p pdf.PDF) Op { return Op{Code: codeFor(p), ID: id, PDF: p} }

// Delete returns the op removing object id.
func Delete(id uint64) Op { return Op{Code: OpDelete, ID: id} }

// Truncate returns the op removing every object.
func Truncate() Op { return Op{Code: OpTruncate} }

// codeFor maps a pdf to its upsert opcode; unsupported kinds keep OpUniform
// out of reach by returning 0, which validation rejects with a clear error.
func codeFor(p pdf.PDF) OpCode {
	switch p.(type) {
	case pdf.Uniform:
		return OpUniform
	case *pdf.Histogram:
		return OpHist
	default:
		return 0
	}
}

var byteOrder = binary.LittleEndian

// maxHistBins caps decoded histogram sizes so a corrupt length field can
// never drive an allocation by itself. Generous: the paper uses 300 bars.
const maxHistBins = 1 << 20

// errTruncatedOp reports an op record ending mid-field.
var errTruncatedOp = errors.New("store: truncated op")

// appendFloat appends a float64 in its IEEE bit pattern, so encode→decode is
// bit-exact — recovered pdfs are identical to the ones the committer applied.
func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func takeFloat(b []byte) (float64, []byte) {
	return math.Float64frombits(byteOrder.Uint64(b)), b[8:]
}

// appendOp serializes one op. The op must already carry its assigned ID and
// a supported payload; encode errors indicate caller bugs and surface as
// validation errors before anything reaches the WAL.
func appendOp(buf []byte, op Op) ([]byte, error) {
	buf = append(buf, byte(op.Code))
	switch op.Code {
	case OpTruncate:
		return buf, nil
	case OpDelete:
		return binary.LittleEndian.AppendUint64(buf, op.ID), nil
	case OpUniform:
		u, ok := op.PDF.(pdf.Uniform)
		if !ok {
			return nil, fmt.Errorf("store: OpUniform carries %T", op.PDF)
		}
		buf = binary.LittleEndian.AppendUint64(buf, op.ID)
		sup := u.Support()
		buf = appendFloat(buf, sup.Lo)
		return appendFloat(buf, sup.Hi), nil
	case OpHist:
		h, ok := op.PDF.(*pdf.Histogram)
		if !ok {
			return nil, fmt.Errorf("store: OpHist carries %T", op.PDF)
		}
		buf = binary.LittleEndian.AppendUint64(buf, op.ID)
		n := h.NumBins()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		for _, e := range h.Edges() {
			buf = appendFloat(buf, e)
		}
		for i := 0; i < n; i++ {
			buf = appendFloat(buf, h.BinMass(i))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("store: unknown op code %d", op.Code)
	}
}

// decodeOp parses one op from the front of b, returning the op and the
// remaining bytes. Decoded pdfs go through the same constructors as live
// ones, so every pdf invariant is re-validated on replay.
func decodeOp(b []byte) (Op, []byte, error) {
	if len(b) < 1 {
		return Op{}, nil, errTruncatedOp
	}
	code := OpCode(b[0])
	b = b[1:]
	takeID := func() (uint64, error) {
		if len(b) < 8 {
			return 0, errTruncatedOp
		}
		id := byteOrder.Uint64(b)
		b = b[8:]
		return id, nil
	}
	switch code {
	case OpTruncate:
		return Op{Code: OpTruncate}, b, nil
	case OpDelete:
		id, err := takeID()
		if err != nil {
			return Op{}, nil, err
		}
		return Op{Code: OpDelete, ID: id}, b, nil
	case OpUniform:
		id, err := takeID()
		if err != nil {
			return Op{}, nil, err
		}
		if len(b) < 16 {
			return Op{}, nil, errTruncatedOp
		}
		var lo, hi float64
		lo, b = takeFloat(b)
		hi, b = takeFloat(b)
		u, err := pdf.NewUniform(lo, hi)
		if err != nil {
			return Op{}, nil, fmt.Errorf("store: op for object %d: %w", id, err)
		}
		return Op{Code: OpUniform, ID: id, PDF: u}, b, nil
	case OpHist:
		id, err := takeID()
		if err != nil {
			return Op{}, nil, err
		}
		if len(b) < 4 {
			return Op{}, nil, errTruncatedOp
		}
		n := int(byteOrder.Uint32(b))
		b = b[4:]
		if n < 1 || n > maxHistBins {
			return Op{}, nil, fmt.Errorf("store: op for object %d: %d histogram bins", id, n)
		}
		if len(b) < (2*n+1)*8 {
			return Op{}, nil, errTruncatedOp
		}
		edges := make([]float64, n+1)
		for i := range edges {
			edges[i], b = takeFloat(b)
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i], b = takeFloat(b)
		}
		h, err := pdf.NewHistogram(edges, weights)
		if err != nil {
			return Op{}, nil, fmt.Errorf("store: op for object %d: %w", id, err)
		}
		return Op{Code: OpHist, ID: id, PDF: h}, b, nil
	case OpDisk:
		// The disk's centre and radius are checked like any payload, so a
		// corrupt record still fails; only the ID survives the decode.
		id, err := takeID()
		if err != nil {
			return Op{}, nil, err
		}
		if len(b) < 24 {
			return Op{}, nil, errTruncatedOp
		}
		var x, y, r float64
		x, b = takeFloat(b)
		y, b = takeFloat(b)
		r, b = takeFloat(b)
		if !isFinite(x) || !isFinite(y) || !isFinite(r) || r <= 0 {
			return Op{}, nil, fmt.Errorf("store: op for object %d: invalid disk (%g,%g r=%g)", id, x, y, r)
		}
		return Op{Code: OpDisk, ID: id}, b, nil
	default:
		return Op{}, nil, fmt.Errorf("store: unknown op code %d", code)
	}
}

// decodeOps parses a batch payload: the op count followed by that many ops.
func decodeOps(b []byte) ([]Op, error) {
	if len(b) < 4 {
		return nil, errTruncatedOp
	}
	n := int(byteOrder.Uint32(b))
	b = b[4:]
	if n < 0 || n > maxBatchOps {
		return nil, fmt.Errorf("store: batch of %d ops", n)
	}
	ops := make([]Op, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		op, rest, err := decodeOp(b)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after batch", len(b))
	}
	return ops, nil
}

// encodeOps serializes a batch payload (op count + ops).
func encodeOps(ops []Op) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ops)))
	var err error
	for _, op := range ops {
		if buf, err = appendOp(buf, op); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// EncodeOps serializes an op batch in the store's WAL payload encoding.
// Shard routers and member servers ship op batches over the wire in this
// format — the same bytes a local commit would log — so a remote apply is
// bit-identical to a local one. A batch with no durable encoding is
// ErrInvalidOp.
func EncodeOps(ops []Op) ([]byte, error) {
	b, err := encodeOps(ops)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOp, err)
	}
	return b, nil
}

// DecodeOps parses a payload produced by EncodeOps; a payload that does not
// parse is ErrInvalidOp.
func DecodeOps(b []byte) ([]Op, error) {
	ops, err := decodeOps(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOp, err)
	}
	return ops, nil
}

// maxBatchOps bounds one committed batch. It is a decode-side sanity cap
// (far above any real batch) that keeps a corrupt count field from driving
// allocations.
const maxBatchOps = 1 << 24

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
