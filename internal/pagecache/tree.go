package pagecache

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// A paged R-tree stores each node as one log record: a leaf flag, an entry
// count, and per entry a rectangle plus either the item value (leaves) or
// the child's record reference (internal nodes). Children are written before
// parents, so a tree dump is a single append pass and the root reference
// lands in the checkpoint header.
//
// This file is the node record's codec and nothing else. The store's
// checkpoint writer encodes the nodes rtree.Dump hands it with AppendNode;
// recovery decodes them with DecodeNode and feeds rtree.Rebuild, so queries
// run on the one in-memory index, never on a second walk over the pages.

// Node is one decoded R-tree node.
type Node struct {
	Leaf  bool
	Rects []geom.Rect
	// Items holds the leaf values (dense dataset IDs); nil for internal nodes.
	Items []int64
	// Children holds the child record references; nil for leaves.
	Children []int64
}

// nodeEntrySize is the encoded size of one node entry.
const nodeEntrySize = 4*8 + 8

// AppendNode encodes a node record (leaf flag, count, entries) into buf.
// vals carries the leaf items or the child references, matching rects.
func AppendNode(buf []byte, leaf bool, rects []geom.Rect, vals []int64) []byte {
	if leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rects)))
	for i, r := range rects {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.MaxY))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(vals[i]))
	}
	return buf
}

// DecodeNode parses a node record.
func DecodeNode(b []byte) (Node, error) {
	if len(b) < 5 {
		return Node{}, fmt.Errorf("pagecache: node record of %d bytes", len(b))
	}
	n := Node{Leaf: b[0] == 1}
	count := int(binary.LittleEndian.Uint32(b[1:5]))
	b = b[5:]
	if len(b) != count*nodeEntrySize {
		return Node{}, fmt.Errorf("pagecache: node record holds %d bytes for %d entries", len(b), count)
	}
	n.Rects = make([]geom.Rect, count)
	vals := make([]int64, count)
	for i := 0; i < count; i++ {
		o := i * nodeEntrySize
		n.Rects[i] = geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[o : o+8])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[o+8 : o+16])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[o+16 : o+24])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[o+24 : o+32])),
		}
		vals[i] = int64(binary.LittleEndian.Uint64(b[o+32 : o+40]))
	}
	if n.Leaf {
		n.Items = vals
	} else {
		n.Children = vals
	}
	return n, nil
}
