package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"repro/internal/chunked"
	"repro/internal/geom"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/rtree"
)

// The paged checkpoint keeps the dataset on disk instead of streaming it
// through memory: every object payload, R-tree node and lookup table is one
// record in a pagecache.Log, and recovery maps the records back without
// materializing anything but metadata. Page 0 is the header, written
// directly (outside the pool's per-page CRC framing); pages 1.. hold the
// record stream.
//
// The v3 header ("CPNNCKP3") holds two slots, slot k at byte k*512 of page 0,
// each in its own 512-byte sector and written by its own write:
//
//	[0:8]   magic "CPNNCKP3"
//	[8:16]  generation       [16:24] version         [24:32] seq
//	[32:40] nextID           [40:48] record-log size [48:56] slot-table ref
//	[56:64] disk-table ref   [64:72] tree root ref   [72:80] tree entry count
//	[80:88] compacted size (file bytes after the last full rewrite)
//	[88:92] CRC-32C over bytes [0:88]
//
// The reader takes the valid slot with the higher generation. The v2 header
// ("CPNNCKP2", one slot: version, seq, nextID, log size, slot-table,
// disk-table and root refs, entry count, CRC over [8:72]) is still read, as
// generation 0; a build that reads only v2 refuses a v3 file at its magic, so
// it never opens a stale generation whose WAL was reset since.
//
// Object payload records reuse the WAL op encoding (a one-op batch), so a
// faulted-in object decodes through exactly the code path recovery replays —
// one format, one set of invariants. The slot table holds what must stay
// resident per object: stable ID, support interval, payload record ref.
//
// A flatten is full or appended. One writer lays out a generation's records
// for both kinds (writeGeneration), and one reader decodes and checks them,
// for recovery and for Store.CheckBase alike (readGeneration).
//
// A full rewrite writes a new file: the object payloads in the packed
// index's leaf order (a query's candidates are neighbours in the tree, so
// they share pages), then the index nodes, the slot table and the disk
// table, and the header with generation 1 in slot 0 and slot 1 empty. Its
// bytes are a pure function of the logical state. It is crash-safe: build
// the temp file, fsync it, rename over the live name, fsync the directory —
// a crash mid-checkpoint leaves the previous checkpoint (and the full WAL)
// untouched. The pool the writer warmed becomes the new file's read pool —
// the fd follows the rename, and every page it holds is already hot.
//
// An appended generation extends the live file from the page after the
// stream's end: the overlay's payloads in centre order, the live index and
// the slot table, whose unchanged refs still point at earlier generations'
// payloads. Nothing else is copied and no page holding a live record is
// written again. The pages are fsynced, then the older header slot takes
// the next generation and is fsynced, and only then is the WAL reset; a
// crash before the slot lands leaves the previous generation and the WAL
// that extends it, and the next open cuts the unreferenced pages off. Every
// generation of a file shares its read pool.
//
// The committer's WAL-size trigger appends while a v3 base exists and the
// file is smaller than appendLimit times its compacted size; every other
// flatten — an explicit Checkpoint, a snapshot install, the first flatten,
// one over a v2 base, one past the limit — is a full rewrite.
//
// The disk table held the 2-D disks of builds that stored them (per disk:
// stable ID, centre x, centre y, radius). A build writes it empty; the
// reader still parses a non-empty one and drops its disks (state.dropDisk).

const (
	ckptMagicV2 = "CPNNCKP2"
	ckptMagicV3 = "CPNNCKP3"

	// hdrSlotSize is the sector one v3 header slot fills; hdrSlotLen is the
	// part of it the slot uses.
	hdrSlotSize = 512
	hdrSlotLen  = 92

	// appendLimit bounds a file's growth by appended generations: a flatten
	// appends only while the file is smaller than appendLimit times its size
	// after the last full rewrite.
	appendLimit = 2
)

// ckptHeader is one checkpoint generation's header.
type ckptHeader struct {
	gen                  uint64 // 1 at a full rewrite, +1 per appended generation; 0 for v2
	version, seq, nextID uint64
	logSize              int64 // record-stream bytes
	slotTab, diskTab     int64 // record refs
	root                 int64 // index root record ref
	entries              int   // index entry count
	compacted            int64 // file bytes after the last full rewrite; 0 for v2
	slot                 int   // the v3 header slot holding it
}

// end returns the file bytes the generation's stream reaches: the header
// page and every stream page.
func (h ckptHeader) end() int64 {
	return (1 + (h.logSize+pagecache.PayloadSize-1)/pagecache.PayloadSize) * pager.PageSize
}

// encode lays h out as a v3 header slot, padded to its sector.
func (h ckptHeader) encode() []byte {
	b := make([]byte, hdrSlotSize)
	copy(b[:8], ckptMagicV3)
	for i, v := range []uint64{h.gen, h.version, h.seq, h.nextID, uint64(h.logSize), uint64(h.slotTab),
		uint64(h.diskTab), uint64(h.root), uint64(h.entries), uint64(h.compacted)} {
		binary.LittleEndian.PutUint64(b[8+8*i:], v)
	}
	binary.LittleEndian.PutUint32(b[88:hdrSlotLen], crc32.Checksum(b[:88], crcTable))
	return b
}

// decodeSlot parses the v3 header slot k of page 0; ok is false for an empty,
// torn or garbled slot.
func decodeSlot(page []byte, k int) (h ckptHeader, ok bool) {
	b := page[k*hdrSlotSize : k*hdrSlotSize+hdrSlotLen]
	if string(b[:8]) != ckptMagicV3 || binary.LittleEndian.Uint32(b[88:]) != crc32.Checksum(b[:88], crcTable) {
		return ckptHeader{}, false
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8+8*i:]) }
	return ckptHeader{gen: u(0), version: u(1), seq: u(2), nextID: u(3), logSize: int64(u(4)),
		slotTab: int64(u(5)), diskTab: int64(u(6)), root: int64(u(7)), entries: int(u(8)),
		compacted: int64(u(9)), slot: k}, true
}

// parseHeader reads the live generation's header out of page 0 of a paged
// checkpoint: the valid v3 slot with the higher generation, or the v2 header.
func parseHeader(page []byte) (ckptHeader, error) {
	if string(page[:8]) == ckptMagicV2 {
		if want, got := binary.LittleEndian.Uint32(page[72:76]), crc32.Checksum(page[8:72], crcTable); want != got {
			return ckptHeader{}, fmt.Errorf("header CRC mismatch (stored %08x, computed %08x)", want, got)
		}
		u := func(o int) uint64 { return binary.LittleEndian.Uint64(page[o : o+8]) }
		return ckptHeader{version: u(8), seq: u(16), nextID: u(24), logSize: int64(u(32)),
			slotTab: int64(u(40)), diskTab: int64(u(48)), root: int64(u(56)), entries: int(u(64))}, nil
	}
	h0, ok0 := decodeSlot(page, 0)
	h1, ok1 := decodeSlot(page, 1)
	switch {
	case ok0 && (!ok1 || h0.gen > h1.gen):
		return h0, nil
	case ok1:
		return h1, nil
	case string(page[:8]) == ckptMagicV3 || string(page[hdrSlotSize:hdrSlotSize+8]) == ckptMagicV3:
		return ckptHeader{}, fmt.Errorf("no valid header slot")
	}
	return ckptHeader{}, fmt.Errorf("bad magic %q", page[:8])
}

// slotRec is one dense slot of the committer's object table. The support
// interval is always resident (the filter phase reads it, never the
// payload); the decoded pdf is resident only for objects written since the
// last checkpoint (the overlay), everything else is a ref into the base
// checkpoint's record log.
type slotRec struct {
	lo, hi float64
	p      pdf.PDF // decoded payload; nil when only ref is available
	ref    int64   // payload record in the base log; -1 before any checkpoint
}

// baseFile is one checkpoint file and its read pool, shared by every
// generation of the file. The file is closed when the last generation
// referencing it — and so the last view faulting from it — is collected; a
// collected generation never closes the file under a newer one.
type baseFile struct {
	f    *pager.File
	pool *pagecache.Pool
}

func newBaseFile(f *pager.File, pool *pagecache.Pool) *baseFile {
	bf := &baseFile{f: f, pool: pool}
	// A full rewrite renames over the previous file; POSIX keeps the
	// unlinked inode readable through the open fd.
	runtime.SetFinalizer(bf, func(bf *baseFile) { bf.f.Close() })
	return bf
}

// base is one generation of an on-disk checkpoint serving lazy payload
// reads: a log over its file's stream up to the generation's end. A new base
// replaces st.base at every flatten; old ones stay reachable through the
// views that still fault from them.
type base struct {
	*baseFile
	log *pagecache.Log
	hdr ckptHeader
}

func newBase(bf *baseFile, hdr ckptHeader) *base {
	return &base{baseFile: bf, log: pagecache.NewLog(bf.pool, 1, hdr.logSize), hdr: hdr}
}

// appendable reports whether the next automatic flatten may append to the
// base file instead of rewriting it.
func (st *state) appendable() bool {
	b := st.base
	return b != nil && b.hdr.gen > 0 && int64(b.f.NumPages())*pager.PageSize < appendLimit*b.hdr.compacted
}

// flattenWork is what one flatten wrote.
type flattenWork struct {
	bytes  int64 // bytes written to the checkpoint file
	copied int   // unchanged payload records copied from the previous base
}

// pdfAt decodes the object payload stored at ref. The record is read into a
// stack buffer (a histogram of up to 30 bins fits) and decoded as the one op
// it holds, so a fault allocates the pdf and nothing else.
func (b *base) pdfAt(ref int64) (pdf.PDF, error) {
	var buf [512]byte
	rec, err := b.log.ReadRecord(buf[:0], ref)
	if err != nil {
		return nil, err
	}
	op, err := decodePayload(rec, ref)
	return op.PDF, err
}

// decodePayload decodes the object payload record rec read at ref: a one-op
// batch holding an upsert.
func decodePayload(rec []byte, ref int64) (Op, error) {
	if len(rec) < 4 || byteOrder.Uint32(rec) != 1 {
		return Op{}, fmt.Errorf("record at %d is not an object payload", ref)
	}
	op, rest, err := decodeOp(rec[4:])
	if err != nil {
		return Op{}, fmt.Errorf("record at %d: %w", ref, err)
	}
	if len(rest) != 0 || op.PDF == nil {
		return Op{}, fmt.Errorf("record at %d is not an object payload", ref)
	}
	return op, nil
}

// viewSource adapts a frozen slot table to uncertain.Source: regions come
// from resident metadata, payloads from the overlay's decoded pdfs or — for
// objects untouched since the last checkpoint — faulted in from the base
// file through the page cache.
type viewSource struct {
	recs chunked.Snap[slotRec]
	base *base
}

func (v viewSource) Len() int { return v.recs.Len() }

func (v viewSource) Region(i int) geom.Interval {
	r := v.recs.At(i)
	return geom.Interval{Lo: r.lo, Hi: r.hi}
}

func (v viewSource) PDF(i int) pdf.PDF {
	r := v.recs.At(i)
	if r.p != nil {
		return r.p
	}
	p, err := v.base.pdfAt(r.ref)
	if err != nil {
		// A fault here means the checkpoint file rotted under a live view.
		// There is no recoverable answer for the running query; fail it
		// loudly (net/http recovers panics per request).
		panic(fmt.Sprintf("store: faulting object %d from checkpoint: %v", i, err))
	}
	return p
}

// writeCheckpointPaged writes st as a full rewrite of the checkpoint under
// dir, rebinds every slot of st to its payload record in the new file once
// it is in place, and returns the new base.
//
// The dumped index is NOT the live tree: live tree shape depends on commit
// grouping history (group sizes decide when filter.Apply flips to an STR
// rebuild), which differs between a primary and its replicas. The checkpoint
// instead packs a canonical STR tree over the slot table in slot order, so
// the file — payload order included — is a pure function of logical state:
// the replica suites compare checkpoints byte for byte. Query answers are
// structure-independent either way (candidates are sorted, f_min is a min).
func writeCheckpointPaged(dir string, st *state, cacheBytes int64) (*base, flattenWork, error) {
	tmp := filepath.Join(dir, checkpointTmp)
	pf, err := pager.Create(tmp)
	if err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			pf.Close()
			os.Remove(tmp)
		}
	}()
	if id, err := pf.Allocate(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	} else if id != 0 {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: fresh file starts at page %d", id)
	}
	pool := pagecache.NewPool(pf, cacheBytes)
	w := pagecache.NewWriter(pool, 1)

	n := len(st.slots)
	inputs := make([]rtree.Input[int], n)
	for i := range inputs {
		inputs[i] = rtree.Input[int]{Rect: geom.RectFromInterval(st.region(i)), Item: i}
	}
	tree, err := rtree.BulkLoad(inputs, rtree.DefaultMinEntries, rtree.DefaultMaxEntries)
	if err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: packing index: %w", err)
	}
	// Every payload, in the packed tree's leaf order (centre order in 1-D),
	// so the candidates of one query share pages.
	order := make([]int, 0, n)
	tree.All(func(_ geom.Rect, i int) bool {
		order = append(order, i)
		return true
	})

	hdr := ckptHeader{gen: 1, version: st.version, seq: st.seq, nextID: st.nextID}
	tab, _ := encodeSlotTable(st)
	copied, err := writeGeneration(w, st, tab, order, tree, &hdr)
	if err != nil {
		return nil, flattenWork{}, err
	}
	// Disk table: always empty (a count of zero).
	if hdr.diskTab, err = w.Append(binary.LittleEndian.AppendUint64(nil, 0)); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if hdr.logSize, err = w.Finish(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	hdr.compacted = hdr.end()

	var page [pager.PageSize]byte
	copy(page[:], hdr.encode())
	if err := pf.WritePage(0, page[:]); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := pf.Sync(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	syncDir(dir)
	ok = true
	rebind(st, nil, tab)
	return newBase(newBaseFile(pf, pool), hdr), flattenWork{bytes: hdr.compacted, copied: copied}, nil
}

// appendGeneration writes st as the next generation of b's file: the
// overlay's payloads, tree (the live index over st's slots) and the slot
// table, appended from the page after b's stream, then the older header
// slot. Once the generation is durable it rebinds the overlay's slots to
// their new payload records; the other slots keep their refs, which point
// into the same file.
func appendGeneration(b *base, st *state, tree *rtree.Tree[int]) (*base, flattenWork, error) {
	// The overlay in centre order, as a full rewrite's leaf order is in 1-D:
	// a query's changed candidates share this generation's pages.
	tab, order := encodeSlotTable(st)
	centre := func(i int) float64 { e := tab[8+32*i:]; return (f64(e[8:]) + f64(e[16:])) / 2 }
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(centre(a), centre(b)), cmp.Compare(a, b)) })

	from := (b.hdr.logSize + pagecache.PayloadSize - 1) / pagecache.PayloadSize * pagecache.PayloadSize
	w := pagecache.ResumeWriter(b.pool, 1, from)
	hdr := ckptHeader{gen: b.hdr.gen + 1, version: st.version, seq: st.seq, nextID: st.nextID,
		diskTab: b.hdr.diskTab, compacted: b.hdr.compacted, slot: 1 - b.hdr.slot}
	_, err := writeGeneration(w, st, tab, order, tree, &hdr)
	if err != nil {
		return nil, flattenWork{}, err
	}
	if hdr.logSize, err = w.Finish(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := b.f.Sync(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	slot := hdr.encode()
	if err := b.f.WriteWithin(0, hdr.slot*hdrSlotSize, slot); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := b.f.Sync(); err != nil {
		return nil, flattenWork{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	rebind(st, order, tab)
	return newBase(b.baseFile, hdr), flattenWork{bytes: hdr.end() - b.hdr.end() + int64(len(slot))}, nil
}

// encodeSlotTable encodes the slot table — per object its stable ID,
// support interval and payload ref — in one presized pass, and returns it
// with the overlay: the slots holding a decoded pdf, in slot order.
func encodeSlotTable(st *state) (tab []byte, overlay []int) {
	n := len(st.slots)
	tab = make([]byte, 8+32*n)
	binary.LittleEndian.PutUint64(tab, uint64(n))
	for i, e := 0, tab[8:]; i < n; i, e = i+1, e[32:] {
		r := st.recs.At(i)
		binary.LittleEndian.PutUint64(e, st.slots[i])
		binary.LittleEndian.PutUint64(e[8:], math.Float64bits(r.lo))
		binary.LittleEndian.PutUint64(e[16:], math.Float64bits(r.hi))
		binary.LittleEndian.PutUint64(e[24:], uint64(r.ref))
		if r.p != nil {
			overlay = append(overlay, i)
		}
	}
	return tab, overlay
}

// writeGeneration is the one writer of both flatten kinds. It appends one
// generation's records to w — the payloads of the slots in order, tree's
// nodes (children before parents), then the slot table tab, with each
// written payload's ref patched into it — and sets hdr's root, slot-table and
// entry-count fields.
//
// An overlay slot's payload is encoded from its pdf; a base slot's record is
// copied verbatim, so unchanged objects are byte-stable across checkpoints,
// through a private read-ahead scanner rather than the readers' pool: a
// rewrite's leaf order is the previous one apart from the changed objects,
// so the scan is sequential and leaves the queries' pages cached. copied
// counts the copies.
func writeGeneration(w *pagecache.Writer, st *state, tab []byte, order []int, tree *rtree.Tree[int], hdr *ckptHeader) (copied int, err error) {
	if n := len(st.slots); tree.Len() != n {
		return 0, fmt.Errorf("store: checkpoint: index holds %d entries, slot table %d", tree.Len(), n)
	}
	var (
		scratch []byte
		scan    *pagecache.Scanner // opened at the first base slot
	)
	for _, i := range order {
		r := st.recs.At(i)
		var raw []byte
		if r.p != nil {
			if scratch, err = appendPayload(scratch[:0], st.slots[i], r.p); err != nil {
				return 0, err
			}
			raw = scratch
		} else {
			if scan == nil {
				scan = st.base.log.Scanner()
			}
			if raw, err = scan.Record(r.ref); err != nil {
				return 0, fmt.Errorf("store: checkpoint: copying object %d payload: %w", st.slots[i], err)
			}
			copied++
		}
		var ref int64
		if ref, err = w.Append(raw); err != nil {
			return 0, fmt.Errorf("store: checkpoint: %w", err)
		}
		binary.LittleEndian.PutUint64(tab[8+32*i+24:], uint64(ref))
	}

	var itemVals []int64
	hdr.root, err = tree.Dump(func(leaf bool, rects []geom.Rect, items []int, children []int64) (int64, error) {
		vals := children
		if leaf {
			itemVals = itemVals[:0]
			for _, it := range items {
				itemVals = append(itemVals, int64(it))
			}
			vals = itemVals
		}
		scratch = pagecache.AppendNode(scratch[:0], leaf, rects, vals)
		return w.Append(scratch)
	})
	if err != nil {
		return 0, fmt.Errorf("store: checkpoint: dumping index: %w", err)
	}
	if hdr.slotTab, err = w.Append(tab); err != nil {
		return 0, fmt.Errorf("store: checkpoint: %w", err)
	}
	hdr.entries = tree.Len()
	return copied, nil
}

// rebind points the slots in order at their payload records in the slot
// table tab, dropping their decoded pdfs, once tab's generation is durable.
// A nil order rebinds every slot, in slot order: a full rewrite moved every
// record, and sequential writes keep the table's chunks in cache.
func rebind(st *state, order []int, tab []byte) {
	set := func(i int) {
		r := st.recs.At(i)
		st.recs.Set(i, slotRec{lo: r.lo, hi: r.hi, ref: int64(binary.LittleEndian.Uint64(tab[8+32*i+24:]))})
	}
	if order == nil {
		for i := range st.slots {
			set(i)
		}
	}
	for _, i := range order {
		set(i)
	}
}

// appendPayload appends the payload record of object id, one upsert of p
// encoded as a one-op batch, to buf.
func appendPayload(buf []byte, id uint64, p pdf.PDF) ([]byte, error) {
	code := codeFor(p)
	if code == 0 {
		return buf, fmt.Errorf("store: checkpoint: object %d: pdf %T has no durable encoding", id, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf, err := appendOp(buf, Op{Code: code, ID: id, PDF: p})
	if err != nil {
		return buf, fmt.Errorf("store: checkpoint: object %d: %w", id, err)
	}
	return buf, nil
}

// f64 decodes the little-endian float64 at the start of b.
func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// loadCheckpoint recovers the checkpoint under dir into a fresh state. For a
// paged checkpoint it loads only the live generation's metadata (slot table,
// index nodes; readGeneration) — object payloads stay on disk behind the
// returned state's base — and returns the rebuilt index tree for materialize
// to carry forward. A legacy v1 checkpoint (op stream) is replayed fully
// resident; the tree is nil and the first materialize bulk-builds it.
// Reports whether a checkpoint existed.
func loadCheckpoint(dir string, cacheBytes int64) (*state, *rtree.Tree[int], bool, error) {
	path := filepath.Join(dir, checkpointName)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return newState(), nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("store: %w", err)
	}
	if err := trimAppendDebris(path); err != nil {
		return nil, nil, false, err
	}
	pf, err := pager.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	var page [pager.PageSize]byte
	if err := pf.ReadPage(0, page[:]); err != nil {
		pf.Close()
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	if string(page[:8]) == ckptMagic {
		// v1 checkpoint from an older build: replay the op stream resident.
		defer pf.Close()
		cs, err := readCheckpoint(pf, page[:])
		if err != nil {
			return nil, nil, false, err
		}
		st := newState()
		st.version, st.seq, st.nextID = cs.Version, cs.Seq, cs.NextID
		if _, _, err := applyDecoded(st, cs.Ops, nil); err != nil {
			return nil, nil, false, fmt.Errorf("store: loading checkpoint: %w", err)
		}
		return st, nil, true, nil
	}
	hdr, err := parseHeader(page[:])
	if err != nil {
		pf.Close()
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	b := newBase(newBaseFile(pf, pagecache.NewPool(pf, cacheBytes)), hdr)
	st, tree, _, err := readGeneration(b)
	if err != nil {
		runtime.SetFinalizer(b.baseFile, nil)
		pf.Close()
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	return st, tree, true, nil
}

// readGeneration decodes generation b of a checkpoint file into a fresh
// state bound to b — the slot table, the disk table and the index, with the
// payloads left on disk — and returns the index and its node-record count.
// It is the one reader of a generation, for recovery and for CheckBase, and
// checks what a served answer depends on: every payload ref lies inside the
// log, and the index's leaf entries name every slot exactly once, each with
// its slot's interval — so the filter neither misses an object nor hands
// out the wrong one's region. The first violation is named by slot.
func readGeneration(b *base) (*state, *rtree.Tree[int], int, error) {
	h := b.hdr
	tab, err := b.log.ReadRecord(nil, h.slotTab)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("slot table: %w", err)
	}
	if len(tab) < 8 || (len(tab)-8)%32 != 0 || binary.LittleEndian.Uint64(tab) != uint64((len(tab)-8)/32) {
		return nil, nil, 0, fmt.Errorf("slot table of %d bytes is malformed", len(tab))
	}
	n := (len(tab) - 8) / 32
	if h.entries != n {
		return nil, nil, 0, fmt.Errorf("header counts %d index entries, slot table %d", h.entries, n)
	}
	st := newState()
	st.slots, st.slotOf = make([]uint64, 0, n), make(map[uint64]int, n)
	for i, e := 0, tab[8:]; i < n; i, e = i+1, e[32:] {
		id := binary.LittleEndian.Uint64(e)
		r := slotRec{lo: f64(e[8:]), hi: f64(e[16:]), ref: int64(binary.LittleEndian.Uint64(e[24:]))}
		if r.ref < 0 || r.ref >= h.logSize {
			return nil, nil, 0, fmt.Errorf("slot %d (id %d): payload ref %d outside the log of %d bytes", i, id, r.ref, h.logSize)
		}
		st.slots = append(st.slots, id)
		st.recs.Append(r)
		st.slotOf[id] = i
	}

	diskTab, err := b.log.ReadRecord(nil, h.diskTab)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("disk table: %w", err)
	}
	if len(diskTab) < 8 || (len(diskTab)-8)%32 != 0 {
		return nil, nil, 0, fmt.Errorf("disk table of %d bytes", len(diskTab))
	}
	for e := diskTab[8:]; len(e) > 0; e = e[32:] {
		st.dropDisk(binary.LittleEndian.Uint64(e[:8]))
	}

	seen := make([]bool, n)
	nodes := 0
	var raw []byte // node records; DecodeNode copies out of it
	tree, err := rtree.Rebuild(h.root, n, rtree.DefaultMinEntries, rtree.DefaultMaxEntries,
		func(ref int64) (bool, []geom.Rect, []int, []int64, error) {
			var err error
			if raw, err = b.log.ReadRecord(raw[:0], ref); err != nil {
				return false, nil, nil, nil, err
			}
			nd, err := pagecache.DecodeNode(raw)
			if err != nil {
				return false, nil, nil, nil, err
			}
			nodes++
			if !nd.Leaf {
				return false, nd.Rects, nil, nd.Children, nil
			}
			items := make([]int, len(nd.Items))
			for k, it := range nd.Items {
				if it < 0 || it >= int64(n) {
					return false, nil, nil, nil, fmt.Errorf("leaf entry names slot %d of %d", it, n)
				}
				slot, id, e := int(it), st.slots[it], tab[8+32*it:]
				if want := geom.RectFromInterval(geom.Interval{Lo: f64(e[8:]), Hi: f64(e[16:])}); nd.Rects[k] != want {
					return false, nil, nil, nil, fmt.Errorf("slot %d (id %d): leaf entry holds %v, slot table %v",
						slot, id, nd.Rects[k], want)
				} else if seen[slot] {
					return false, nil, nil, nil, fmt.Errorf("slot %d (id %d): reached twice", slot, id)
				}
				seen[slot] = true
				items[k] = slot
			}
			return true, nd.Rects, items, nil, nil
		})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("index: %w", err)
	}
	if i := slices.Index(seen, false); i >= 0 {
		return nil, nil, 0, fmt.Errorf("slot %d (id %d): no leaf entry reaches it", i, st.slots[i])
	}
	st.base = b
	st.version, st.seq, st.nextID = h.version, h.seq, h.nextID
	return st, tree, nodes, nil
}

// trimAppendDebris cuts a v3 checkpoint file back to its live generation's
// end: pages past it are an append that crashed before its header slot
// landed, which no header references and the WAL still covers. A file of any
// other kind, or one too short for its own header, is left to the loader to
// judge.
func trimAppendDebris(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var page [pager.PageSize]byte
	if _, err := f.ReadAt(page[:], 0); err != nil {
		return nil
	}
	hdr, err := parseHeader(page[:])
	info, serr := f.Stat()
	if err != nil || hdr.gen == 0 || serr != nil || info.Size() <= hdr.end() {
		return nil
	}
	if err := f.Truncate(hdr.end()); err != nil {
		return fmt.Errorf("store: cutting an unfinished checkpoint append: %w", err)
	}
	return f.Sync()
}
