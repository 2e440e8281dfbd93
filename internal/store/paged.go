package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/chunked"
	"repro/internal/geom"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/pdf"
	"repro/internal/rtree"
)

// The v2 paged checkpoint keeps the dataset on disk instead of streaming it
// through memory: every object payload, R-tree node and lookup table is one
// record in a pagecache.Log, and recovery maps the records back without
// materializing anything but metadata. Page 0 is the header, written
// directly (outside the pool's per-page CRC framing):
//
//	[0:8]   magic "CPNNCKP2"
//	[8:16]  version          [16:24] seq             [24:32] nextID
//	[32:40] record-log size  [40:48] slot-table ref  [48:56] disk-table ref
//	[56:64] tree root ref    [64:72] tree entry count
//	[72:76] CRC-32C over bytes [8:72]
//
// Object payload records reuse the WAL op encoding (a one-op batch), so a
// faulted-in object decodes through exactly the code path recovery replays —
// one format, one set of invariants. The slot table holds what must stay
// resident per object: stable ID, support interval, payload record ref.
//
// The log holds, in order: the object payloads in the packed index's leaf
// order (a query's candidates are neighbours in the tree, so they share
// pages), then the index nodes, the slot table and the disk table. The
// reader is order-agnostic — every record is reached through a ref.
//
// The write is crash-safe: build the temp file, flush and fsync it, rename
// over the live name, fsync the directory — a crash mid-checkpoint leaves
// the previous checkpoint (and the full WAL) untouched. The pool the writer
// warmed becomes the new base's read pool — the fd follows the rename, and
// every page it holds is already hot.

const ckptMagicV2 = "CPNNCKP2"

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

// base is one on-disk checkpoint generation serving lazy payload reads. A
// new base replaces st.base at every checkpoint; old ones stay reachable
// through the views that still fault from them.
type base struct {
	f    *pager.File
	pool *pagecache.Pool
	log  *pagecache.Log
}

func newBase(f *pager.File, pool *pagecache.Pool, log *pagecache.Log) *base {
	b := &base{f: f, pool: pool, log: log}
	// A checkpoint renames over the previous generation's file; POSIX keeps
	// the unlinked inode readable through the open fd. Close it only when the
	// last view referencing this base is collected.
	runtime.SetFinalizer(b, func(b *base) { b.f.Close() })
	return b
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
	if len(rec) < 4 || byteOrder.Uint32(rec) != 1 {
		return nil, fmt.Errorf("record at %d is not an object payload", ref)
	}
	op, rest, err := decodeOp(rec[4:])
	if err != nil {
		return nil, fmt.Errorf("record at %d: %w", ref, err)
	}
	if len(rest) != 0 || op.PDF == nil {
		return nil, fmt.Errorf("record at %d is not an object payload", ref)
	}
	return op.PDF, nil
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

// writeCheckpointPaged writes the v2 checkpoint for st under dir and returns
// the new base plus the payload record ref per slot (for rebinding the slot
// table to the new generation).
//
// The dumped index is NOT the live tree: live tree shape depends on commit
// grouping history (group sizes decide when filter.Apply flips to an STR
// rebuild), which differs between a primary and its replicas. The checkpoint
// instead packs a canonical STR tree over the slot table in slot order, so
// the file — payload order included — is a pure function of logical state:
// the replica suites compare checkpoints byte for byte. Query answers are
// structure-independent either way (candidates are sorted, f_min is a min).
func writeCheckpointPaged(dir string, st *state, cacheBytes int64) (*base, []int64, error) {
	tmp := filepath.Join(dir, checkpointTmp)
	pf, err := pager.Create(tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			pf.Close()
			os.Remove(tmp)
		}
	}()
	if id, err := pf.Allocate(); err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	} else if id != 0 {
		return nil, nil, fmt.Errorf("store: checkpoint: fresh file starts at page %d", id)
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
		return nil, nil, fmt.Errorf("store: checkpoint: packing index: %w", err)
	}
	order := make([]int, 0, n)
	tree.All(func(_ geom.Rect, i int) bool {
		order = append(order, i)
		return true
	})

	// Object payloads, in the packed tree's leaf order (centre order in 1-D),
	// so the candidates of one query share pages. Overlay slots encode their
	// decoded pdf as a one-op batch; base-resident slots copy the record
	// bytes verbatim from the previous generation — no decode, no re-encode,
	// so unchanged objects are byte-stable across checkpoints. The copy reads
	// the previous base through a private read-ahead scanner, not the
	// readers' pool: the new leaf order is the old one apart from the
	// changed objects, so the scan is sequential and leaves the queries'
	// pages cached.
	refs := make([]int64, n)
	var (
		scratch []byte
		scan    *pagecache.Scanner // nil without a base: every slot is resident
	)
	if st.base != nil {
		scan = st.base.log.Scanner()
	}
	for _, i := range order {
		r := st.recs.At(i)
		var raw []byte
		if r.p != nil {
			code := codeFor(r.p)
			if code == 0 {
				return nil, nil, fmt.Errorf("store: checkpoint: object %d: pdf %T has no durable encoding",
					st.slots[i], r.p)
			}
			scratch = binary.LittleEndian.AppendUint32(scratch[:0], 1)
			if scratch, err = appendOp(scratch, Op{Code: code, ID: st.slots[i], PDF: r.p}); err != nil {
				return nil, nil, fmt.Errorf("store: checkpoint: object %d: %w", st.slots[i], err)
			}
			raw = scratch
		} else if raw, err = scan.Record(r.ref); err != nil {
			return nil, nil, fmt.Errorf("store: checkpoint: copying object %d payload: %w", st.slots[i], err)
		}
		if refs[i], err = w.Append(raw); err != nil {
			return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
		}
	}

	// Index nodes, children before parents; the root ref lands in the header.
	rootRef, err := tree.Dump(func(leaf bool, rects []geom.Rect, items []int, children []int64) (int64, error) {
		vals := children
		if leaf {
			vals = make([]int64, len(items))
			for i, it := range items {
				vals[i] = int64(it)
			}
		}
		scratch = pagecache.AppendNode(scratch[:0], leaf, rects, vals)
		return w.Append(scratch)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: dumping index: %w", err)
	}

	// Slot table: per 1-D object, the metadata recovery keeps resident.
	scratch = binary.LittleEndian.AppendUint64(scratch[:0], uint64(n))
	for i := 0; i < n; i++ {
		r := st.recs.At(i)
		scratch = binary.LittleEndian.AppendUint64(scratch, st.slots[i])
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(r.lo))
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(r.hi))
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(refs[i]))
	}
	slotTabRef, err := w.Append(scratch)
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}

	// Disk table: the 2-D family is tiny metadata; it stays fully resident.
	scratch = binary.LittleEndian.AppendUint64(scratch[:0], uint64(len(st.dslots)))
	for i, id := range st.dslots {
		d := st.disks[i]
		scratch = binary.LittleEndian.AppendUint64(scratch, id)
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(d.Center.X))
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(d.Center.Y))
		scratch = binary.LittleEndian.AppendUint64(scratch, math.Float64bits(d.Radius))
	}
	diskTabRef, err := w.Append(scratch)
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}

	logSize, err := w.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}

	var hdr [pager.PageSize]byte
	copy(hdr[:8], ckptMagicV2)
	binary.LittleEndian.PutUint64(hdr[8:16], st.version)
	binary.LittleEndian.PutUint64(hdr[16:24], st.seq)
	binary.LittleEndian.PutUint64(hdr[24:32], st.nextID)
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(logSize))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(slotTabRef))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(diskTabRef))
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(rootRef))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(tree.Len()))
	binary.LittleEndian.PutUint32(hdr[72:76], crc32.Checksum(hdr[8:72], crcTable))
	if err := pf.WritePage(0, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := pf.Sync(); err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		return nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	syncDir(dir)
	ok = true
	return newBase(pf, pool, pagecache.NewLog(pool, 1, logSize)), refs, nil
}

// loadCheckpoint recovers the checkpoint under dir into a fresh state. For a
// v2 checkpoint it loads only metadata (slot and disk tables, index nodes) —
// object payloads stay on disk behind the returned state's base — and
// returns the rebuilt index tree for materialize to carry forward. A legacy
// v1 checkpoint (op stream) is replayed fully resident; the tree is nil and
// the first materialize bulk-builds it. Reports whether a checkpoint existed.
func loadCheckpoint(dir string, cacheBytes int64) (*state, *rtree.Tree[int], bool, error) {
	st := newState()
	path := filepath.Join(dir, checkpointName)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return st, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("store: %w", err)
	}
	pf, err := pager.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	var hdr [pager.PageSize]byte
	if err := pf.ReadPage(0, hdr[:]); err != nil {
		pf.Close()
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: %w", err)
	}
	if string(hdr[:8]) == ckptMagic {
		// v1 checkpoint from an older build: replay the op stream resident.
		pf.Close()
		cs, ok, err := readCheckpoint(dir)
		if err != nil || !ok {
			return nil, nil, ok, err
		}
		st.version, st.seq, st.nextID = cs.Version, cs.Seq, cs.NextID
		if _, _, err := applyDecoded(st, cs.Ops, nil); err != nil {
			return nil, nil, false, fmt.Errorf("store: loading checkpoint: %w", err)
		}
		return st, nil, true, nil
	}
	ok := false
	defer func() {
		if !ok {
			pf.Close()
		}
	}()
	if string(hdr[:8]) != ckptMagicV2 {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: bad magic %q", hdr[:8])
	}
	if want, got := binary.LittleEndian.Uint32(hdr[72:76]), crc32.Checksum(hdr[8:72], crcTable); want != got {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: header CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	logSize := int64(binary.LittleEndian.Uint64(hdr[32:40]))
	pool := pagecache.NewPool(pf, cacheBytes)
	b := newBase(pf, pool, pagecache.NewLog(pool, 1, logSize))

	slotTab, err := b.log.ReadRecord(nil, int64(binary.LittleEndian.Uint64(hdr[40:48])))
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: slot table: %w", err)
	}
	if len(slotTab) < 8 || (len(slotTab)-8)%32 != 0 {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: slot table of %d bytes", len(slotTab))
	}
	n := int(binary.LittleEndian.Uint64(slotTab[:8]))
	if n != (len(slotTab)-8)/32 {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: slot table count %d, %d entries", n, (len(slotTab)-8)/32)
	}
	for i := 0; i < n; i++ {
		e := slotTab[8+32*i:]
		id := binary.LittleEndian.Uint64(e[:8])
		st.slots = append(st.slots, id)
		st.recs.Append(slotRec{
			lo:  math.Float64frombits(binary.LittleEndian.Uint64(e[8:16])),
			hi:  math.Float64frombits(binary.LittleEndian.Uint64(e[16:24])),
			ref: int64(binary.LittleEndian.Uint64(e[24:32])),
		})
		st.slotOf[id] = i
	}

	diskTab, err := b.log.ReadRecord(nil, int64(binary.LittleEndian.Uint64(hdr[48:56])))
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: disk table: %w", err)
	}
	if len(diskTab) < 8 || (len(diskTab)-8)%32 != 0 {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: disk table of %d bytes", len(diskTab))
	}
	for i, nd := 0, (len(diskTab)-8)/32; i < nd; i++ {
		e := diskTab[8+32*i:]
		id := binary.LittleEndian.Uint64(e[:8])
		st.dslots = append(st.dslots, id)
		st.disks = append(st.disks, geom.Circle{
			Center: geom.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(e[8:16])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(e[16:24])),
			},
			Radius: math.Float64frombits(binary.LittleEndian.Uint64(e[24:32])),
		})
		st.dslotOf[id] = i
	}

	var raw []byte // node records; DecodeNode copies out of it
	tree, err := rtree.Rebuild(int64(binary.LittleEndian.Uint64(hdr[56:64])),
		int(binary.LittleEndian.Uint64(hdr[64:72])),
		rtree.DefaultMinEntries, rtree.DefaultMaxEntries,
		func(ref int64) (bool, []geom.Rect, []int, []int64, error) {
			var err error
			if raw, err = b.log.ReadRecord(raw[:0], ref); err != nil {
				return false, nil, nil, nil, err
			}
			nd, err := pagecache.DecodeNode(raw)
			if err != nil {
				return false, nil, nil, nil, err
			}
			var items []int
			if nd.Leaf {
				items = make([]int, len(nd.Items))
				for i, it := range nd.Items {
					items[i] = int(it)
				}
			}
			return nd.Leaf, nd.Rects, items, nd.Children, nil
		})
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: rebuilding index: %w", err)
	}
	if tree.Len() != n {
		return nil, nil, false, fmt.Errorf("store: corrupt checkpoint: index holds %d entries, slot table %d", tree.Len(), n)
	}

	st.base = b
	st.version = binary.LittleEndian.Uint64(hdr[8:16])
	st.seq = binary.LittleEndian.Uint64(hdr[16:24])
	st.nextID = binary.LittleEndian.Uint64(hdr[24:32])
	ok = true
	return st, tree, true, nil
}
