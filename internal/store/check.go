package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pagecache"
	"repro/internal/rtree"
)

// BaseCheck summarizes a deep check of the base checkpoint's live
// generation (Store.CheckBase).
type BaseCheck struct {
	// Generation is the header generation checked; 0 for a file an older
	// build wrote.
	Generation uint64
	// Slots counts the slot-table entries, Nodes the index node records and
	// Depth the index levels.
	Slots, Nodes, Depth int
}

// CheckBase reads the live generation of the base checkpoint back from its
// file — the slot table and every index node record, not the in-memory
// index recovery built from them — and checks that the index is one a
// reopen can serve: every node but the root holds between the minimum and
// maximum entry count, every entry's rectangle lies inside its parent
// entry's, every leaf sits at the same depth, every slot is reached exactly
// once by a leaf entry holding the slot table's interval, and every payload
// ref lies inside the record log. The first violation is returned, naming
// the slot or node record. A store without a paged base checks nothing.
func (s *Store) CheckBase() (BaseCheck, error) {
	b := s.baseRef.Load()
	if b == nil {
		return BaseCheck{}, nil
	}
	return b.check()
}

func (b *base) check() (BaseCheck, error) {
	h := b.hdr
	out := BaseCheck{Generation: h.gen}
	tab, err := b.log.ReadRecord(nil, h.slotTab)
	if err != nil {
		return out, fmt.Errorf("slot table: %w", err)
	}
	if len(tab) < 8 || (len(tab)-8)%32 != 0 || binary.LittleEndian.Uint64(tab) != uint64((len(tab)-8)/32) {
		return out, fmt.Errorf("slot table of %d bytes is malformed", len(tab))
	}
	n := (len(tab) - 8) / 32
	out.Slots = n
	entry := func(i int) (id uint64, r geom.Rect, ref int64) {
		e := tab[8+32*i:]
		return binary.LittleEndian.Uint64(e), geom.RectFromInterval(geom.Interval{
			Lo: math.Float64frombits(binary.LittleEndian.Uint64(e[8:])),
			Hi: math.Float64frombits(binary.LittleEndian.Uint64(e[16:])),
		}), int64(binary.LittleEndian.Uint64(e[24:]))
	}
	for i := 0; i < n; i++ {
		if id, _, ref := entry(i); ref < 0 || ref >= h.logSize {
			return out, fmt.Errorf("slot %d (id %d): payload ref %d outside the log of %d bytes", i, id, ref, h.logSize)
		}
	}
	if h.entries != n {
		return out, fmt.Errorf("header counts %d index entries, slot table %d", h.entries, n)
	}

	seen := make([]bool, n)
	leafDepth := -1
	var raw []byte
	var walk func(ref int64, depth int, parent *geom.Rect) error
	walk = func(ref int64, depth int, parent *geom.Rect) error {
		if depth > 64 {
			return fmt.Errorf("node record %d: nesting beyond depth 64", ref)
		}
		var err error
		if raw, err = b.log.ReadRecord(raw[:0], ref); err != nil {
			return fmt.Errorf("node record %d: %w", ref, err)
		}
		nd, err := pagecache.DecodeNode(raw)
		if err != nil {
			return fmt.Errorf("node record %d: %w", ref, err)
		}
		out.Nodes++
		out.Depth = max(out.Depth, depth+1)
		if k := len(nd.Rects); k > rtree.DefaultMaxEntries || (parent != nil && k < rtree.DefaultMinEntries) {
			return fmt.Errorf("node record %d at depth %d holds %d entries, want [%d, %d]",
				ref, depth, k, rtree.DefaultMinEntries, rtree.DefaultMaxEntries)
		}
		if nd.Leaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("node record %d: leaf at depth %d, others at %d", ref, depth, leafDepth)
			}
			for i, r := range nd.Rects {
				slot := nd.Items[i]
				if slot < 0 || slot >= int64(n) {
					return fmt.Errorf("node record %d: leaf entry %d names slot %d of %d", ref, i, slot, n)
				}
				id, want, _ := entry(int(slot))
				switch {
				case r != want:
					return fmt.Errorf("slot %d (id %d): leaf entry in node record %d holds %v, slot table %v",
						slot, id, ref, r, want)
				case parent != nil && !parent.Contains(r):
					return fmt.Errorf("slot %d (id %d): leaf entry in node record %d lies outside its parent entry %v",
						slot, id, ref, *parent)
				case seen[slot]:
					return fmt.Errorf("slot %d (id %d): reached twice, again in node record %d", slot, id, ref)
				}
				seen[slot] = true
			}
			return nil
		}
		// The node's entries are copied out: the walk below reuses raw.
		rects, children := nd.Rects, nd.Children
		for i, r := range rects {
			if parent != nil && !parent.Contains(r) {
				return fmt.Errorf("node record %d: entry %d %v lies outside its parent entry %v", ref, i, r, *parent)
			}
			if err := walk(children[i], depth+1, &r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.root, 0, nil); err != nil {
		return out, err
	}
	for slot, ok := range seen {
		if !ok {
			id, _, _ := entry(slot)
			return out, fmt.Errorf("slot %d (id %d): no leaf entry reaches it", slot, id)
		}
	}
	return out, nil
}
