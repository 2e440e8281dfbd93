package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/pdf"
)

func seedOps() []Op {
	return []Op{
		Truncate(),
		{Code: OpUniform, ID: 1, PDF: pdf.MustUniform(0, 10)},
		{Code: OpHist, ID: 2, PDF: pdf.MustHistogram([]float64{0, 1, 2}, []float64{1, 3})},
		Delete(2),
	}
}

// FuzzWALScan feeds arbitrary bytes to the WAL scanner: it must never
// panic, the reported valid prefix must be within the input, and
// re-scanning exactly that prefix must be clean (no tear) and yield the
// same records — the property recovery relies on when it truncates a torn
// tail and keeps appending.
func FuzzWALScan(f *testing.F) {
	payload, err := encodeOps(seedOps())
	if err != nil {
		f.Fatal(err)
	}
	rec := appendWALRecord(nil, 1, payload)
	f.Add(rec)
	f.Add(append(appendWALRecord(nil, 1, payload), appendWALRecord(nil, 2, payload)...))
	f.Add(rec[:len(rec)-3]) // torn tail
	if old, err := os.ReadFile(filepath.Join("testdata", "disks_v2", walName)); err == nil {
		f.Add(old) // an older build's log, disk upserts included
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // absurd length

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn, err := scanWAL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("scanWAL returned io error on a byte reader: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if !torn && valid != int64(len(data)) {
			t.Fatalf("clean scan consumed %d of %d bytes", valid, len(data))
		}
		again, valid2, torn2, _ := scanWAL(bytes.NewReader(data[:valid]))
		if torn2 || valid2 != valid || len(again) != len(recs) {
			t.Fatalf("rescan of valid prefix: torn=%v valid=%d records=%d (want %d records at %d)",
				torn2, valid2, len(again), len(recs), valid)
		}
	})
}

// FuzzDecodeOps feeds arbitrary bytes to the op-batch parser: no panics,
// and anything that decodes, apart from an older build's disk upserts, must
// survive an encode→decode round trip with identical wire bytes (the
// canonical-encoding property checkpoints assume).
func FuzzDecodeOps(f *testing.F) {
	if payload, err := encodeOps(seedOps()); err == nil {
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, byte(OpHist)})
	if old, err := os.ReadFile(filepath.Join("testdata", "disks_v2", "snapshot.bin")); err == nil {
		f.Add(old[24:]) // an older build's snapshot batch, disk upserts included
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeOps(data)
		if err != nil {
			return
		}
		// A disk upsert decodes (recovery drops it) but no build encodes one.
		ops = slices.DeleteFunc(ops, func(op Op) bool { return op.Code == OpDisk })
		enc, err := encodeOps(ops)
		if err != nil {
			t.Fatalf("re-encoding decoded ops: %v", err)
		}
		back, err := decodeOps(enc)
		if err != nil {
			t.Fatalf("decoding re-encoded ops: %v", err)
		}
		if len(back) != len(ops) {
			t.Fatalf("round trip: %d ops became %d", len(ops), len(back))
		}
	})
}
