package pagecache

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeNode holds the node record codec to its two contracts. Arbitrary
// bytes never panic DecodeNode, and whatever it accepts is canonical: it
// re-encodes to the same bytes (any leaf flag other than 1 reads as 0).
// In the other direction, a node built from the input's bytes — NaNs,
// infinities and negative refs included — survives AppendNode → DecodeNode
// bit for bit.
func FuzzDecodeNode(f *testing.F) {
	rects := []geom.Rect{
		{MinX: -1.5, MinY: 0, MaxX: 2.25, MaxY: 0},
		{MinX: 3, MinY: 0, MaxX: 7, MaxY: 0},
	}
	f.Add(AppendNode(nil, true, rects, []int64{11, -9}), true)
	f.Add(AppendNode(nil, false, rects, []int64{0, 4096}), false)
	f.Add([]byte{}, true)
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF}, false)

	values := func(n Node) []int64 {
		if n.Leaf {
			return n.Items
		}
		return n.Children
	}
	f.Fuzz(func(t *testing.T, data []byte, leaf bool) {
		if n, err := DecodeNode(data); err == nil {
			want := append([]byte{0}, data[1:]...)
			if n.Leaf {
				want[0] = 1
			}
			if enc := AppendNode(nil, n.Leaf, n.Rects, values(n)); !bytes.Equal(enc, want) {
				t.Fatalf("decoded record re-encodes to %x, want %x", enc, want)
			}
		}

		count := len(data) / nodeEntrySize
		in := make([]geom.Rect, count)
		vals := make([]int64, count)
		word := func(i, k int) uint64 {
			return binary.LittleEndian.Uint64(data[i*nodeEntrySize+8*k:])
		}
		for i := range in {
			in[i] = geom.Rect{
				MinX: math.Float64frombits(word(i, 0)), MinY: math.Float64frombits(word(i, 1)),
				MaxX: math.Float64frombits(word(i, 2)), MaxY: math.Float64frombits(word(i, 3)),
			}
			vals[i] = int64(word(i, 4))
		}
		n, err := DecodeNode(AppendNode(nil, leaf, in, vals))
		if err != nil {
			t.Fatalf("decoding an encoded node: %v", err)
		}
		if n.Leaf != leaf || len(n.Rects) != count || len(values(n)) != count {
			t.Fatalf("round trip: leaf %v with %d rects and %d values, want %v, %d, %d",
				n.Leaf, len(n.Rects), len(values(n)), leaf, count, count)
		}
		if (n.Leaf && n.Children != nil) || (!n.Leaf && n.Items != nil) {
			t.Fatalf("round trip: leaf %v carries items %v and children %v", n.Leaf, n.Items, n.Children)
		}
		for i, r := range n.Rects {
			got := [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
			if got != [4]uint64{word(i, 0), word(i, 1), word(i, 2), word(i, 3)} || values(n)[i] != vals[i] {
				t.Fatalf("round trip: entry %d = %+v -> %d, want %+v -> %d", i, r, values(n)[i], in[i], vals[i])
			}
		}
	})
}
