package store

import "fmt"

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
// file, not the in-memory index recovery built from it, through recovery's
// own reader (readGeneration) and so repeats its checks. It adds the
// index's shape — every node but the root holds between the minimum and
// maximum entry count, every entry's rectangle contains its child's, every
// leaf sits at the same depth — and decodes every payload record the slot
// table references, in any generation: each must be one upsert of the
// slot's ID whose support is the slot's interval. The first violation is
// returned, naming the slot or, for the index's shape, the depth. A store
// without a paged base checks nothing.
func (s *Store) CheckBase() (BaseCheck, error) {
	b := s.baseRef.Load()
	if b == nil {
		return BaseCheck{}, nil
	}
	out := BaseCheck{Generation: b.hdr.gen}
	st, tree, nodes, err := readGeneration(b)
	if err != nil {
		return out, err
	}
	if err := tree.CheckInvariants(); err != nil {
		return out, fmt.Errorf("index: %w", err)
	}
	out.Slots, out.Nodes, out.Depth = len(st.slots), nodes, tree.Height()
	return out, st.scanPayloads(func(slot int, op Op) error {
		id, want := st.slots[slot], st.region(slot)
		if op.ID != id {
			return fmt.Errorf("slot %d (id %d): payload record holds id %d", slot, id, op.ID)
		}
		if got := op.PDF.Support(); got != want {
			return fmt.Errorf("slot %d (id %d): payload support %v, slot table %v", slot, id, got, want)
		}
		return nil
	})
}
