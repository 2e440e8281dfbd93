package store

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunked"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/pagecache"
	"repro/internal/uncertain"
)

// DefaultCheckpointBytes is the WAL size past which the committer takes an
// automatic checkpoint.
const DefaultCheckpointBytes = 8 << 20

// DefaultCacheBytes is the default page-cache budget for reading object
// payloads back from the base checkpoint file.
const DefaultCacheBytes = 64 << 20

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrBroken is returned after a WAL write or sync failure: the in-memory
// state may be ahead of disk, so the store refuses further mutations. The
// last published view remains valid — it was fsync'd before publication.
var ErrBroken = errors.New("store: broken by an earlier WAL failure")

// ErrUnknownID marks an update or delete addressing a stable ID that does
// not exist; servers map it to 404.
var ErrUnknownID = errors.New("store: unknown object id")

// ErrInvalidOp marks a semantically invalid operation (unsupported pdf kind,
// unknown op code); servers map it to 400.
var ErrInvalidOp = errors.New("store: invalid op")

// Options tunes a store. The zero value is the durable default.
type Options struct {
	// NoSync skips the fsync on commit. Throughput multiplies, but a crash
	// can lose recent batches (never corrupt surviving ones — the CRC scan
	// still cuts the tail at the first tear). For bulk loads and benchmarks.
	NoSync bool
	// CheckpointBytes is the WAL size that triggers an automatic checkpoint;
	// 0 means DefaultCheckpointBytes, negative disables auto-checkpointing.
	CheckpointBytes int64
	// CacheBytes bounds the buffer pool used to fault object payloads in
	// from the base checkpoint file; 0 means DefaultCacheBytes. Datasets
	// larger than the budget still serve — cold payloads fault in page by
	// page and evict clock-wise — so this is the store's resident-memory
	// knob, not a capacity limit.
	CacheBytes int64
	// ExplicitIDs lets upserts address stable IDs this store has never
	// assigned: an unknown non-zero ID inserts (bumping the ID counter past
	// it) instead of failing with ErrUnknownID. Shard member stores run in
	// this mode — the router owns ID assignment across the cluster, so a
	// member must accept whatever IDs it is handed.
	ExplicitIDs bool
	// Logger receives structured recovery and checkpoint events; nil
	// discards them.
	Logger *slog.Logger
}

// View is one immutable MVCC generation of the store: a dense dataset (slot
// i holds the object with stable ID IDs[i]) and the filter index maintained
// incrementally over it. Views are never mutated; each committed batch
// publishes a new one.
type View struct {
	// Version increases by one per committed batch and is monotonic across
	// restarts — it is persisted in checkpoints and reconstructed from the
	// WAL, so snapshot-versioned caches stay sound through a reboot.
	Version uint64
	// Seq is the last committed batch sequence number.
	Seq uint64
	// Dataset holds the objects with dense IDs 0..Len()-1.
	Dataset *uncertain.Dataset
	// IDs maps dense dataset IDs to stable object IDs.
	IDs []uint64
	// Index is the filter index over Dataset, ready for an engine.
	Index *filter.Index
	// NextID is the stable ID the next ID-assigning insert would receive.
	// It is durable (checkpointed and reconstructed from the WAL), so a
	// shard router can recover its cluster-wide ID counter as the maximum
	// NextID over its members.
	NextID uint64
}

// ApplyResult reports a committed batch.
type ApplyResult struct {
	// Version is the store version after this batch.
	Version uint64
	// Seq is the batch's WAL sequence number.
	Seq uint64
	// IDs holds, per op, the stable ID it affected — for inserts, the
	// freshly assigned ID. Truncates report 0.
	IDs []uint64
}

// Stats is a snapshot of the store's operational counters.
type Stats struct {
	// OpsApplied counts committed ops; Commits counts committed batches.
	OpsApplied, Commits uint64
	// WALBytes is the current WAL length; WALAppendedBytes the total ever
	// appended (survives WAL resets).
	WALBytes, WALAppendedBytes uint64
	// Checkpoints counts completed checkpoints (flattens); CheckpointNanos
	// their total wall time. FullFlattens counts the ones that rewrote the
	// base file and AppendedFlattens the ones that appended a generation to
	// it. FlattenBytes counts the bytes flattens wrote to checkpoint files;
	// FlattenCopied the unchanged payload records full rewrites copied from
	// the previous base.
	Checkpoints, CheckpointNanos   uint64
	FullFlattens, AppendedFlattens uint64
	FlattenBytes, FlattenCopied    uint64
	// WALRecords counts WAL records written since the last checkpoint (the
	// batches a reopen would replay right now).
	WALRecords uint64
	// LastCheckpointUnixNano is when the latest checkpoint was written (the
	// on-disk file's mtime for checkpoints inherited from a previous
	// process); 0 when the store has never checkpointed. WALBytes measures
	// how much compaction debt has accrued since then.
	LastCheckpointUnixNano int64
	// TornTailDropped reports whether recovery discarded a torn WAL tail.
	TornTailDropped bool
	// FeedSubscribers counts live change-feed subscriptions; FeedDropped
	// counts deltas dropped on lagging subscribers (each drop run ends in one
	// Gap delivery).
	FeedSubscribers int
	FeedDropped     uint64
	// Role is the replication role.
	Role Role
	// Version and Seq mirror the current view.
	Version, Seq uint64
	// Objects1D counts live objects.
	Objects1D int
	// DroppedDisks counts the 2-D disks that data from an older build held
	// live and this store dropped on open or replay (see applyDecoded).
	DroppedDisks int
	// PageCache reports the base checkpoint's buffer-pool counters; zero
	// until the store writes (or recovers) a paged checkpoint.
	PageCache pagecache.Stats
	// BasePages counts pages in the base checkpoint file. Generation is its
	// live header generation (1 after a full rewrite, one more per appended
	// flatten, 0 for a file an older build wrote) and CompactedBytes its size
	// after the last full rewrite.
	BasePages      int
	Generation     uint64
	CompactedBytes int64
	// CacheBytes is the resolved page-cache budget.
	CacheBytes int64
	// OverlaySlots counts 1-D objects whose decoded payloads are resident in
	// the overlay (written since the last checkpoint); BaseSlots counts the
	// ones served lazily from the base checkpoint file.
	OverlaySlots, BaseSlots int
}

// state is the committer-owned mutable object table, an overlay over the
// base checkpoint: recs keeps every object's support interval resident, but
// decoded payloads only for objects written since the last checkpoint — the
// rest are refs into st.base's record log. Commits snapshot recs in
// O(n/ChunkSize) pointer copies and then copy only the 64-slot chunks the
// batch writes, and share the slots backing array with published views
// copy-on-write, so commit cost tracks the batch, not the dataset.
type state struct {
	seq     uint64
	version uint64
	nextID  uint64

	slots     []uint64 // dense slot -> stable ID
	idsShared bool     // slots' backing array is aliased by a published view
	recs      chunked.Slice[slotRec]
	resident  int   // slots holding a decoded payload (the overlay depth)
	base      *base // latest paged checkpoint; nil before the first one
	slotOf    map[uint64]int

	// dropped holds the IDs of the disks an older build's data held live
	// (dropDisk), so that the log's later updates and deletes of them replay
	// as no-ops.
	dropped map[uint64]struct{}
}

func newState() *state {
	// Stable IDs start at 1: ID zero is the "assign me" sentinel of inserts.
	return &state{nextID: 1, slotOf: map[uint64]int{}, dropped: map[uint64]struct{}{}}
}

// dropDisk is the one place a 2-D disk from an older build's data goes: the
// checkpoint's disk table and every logged OpDisk upsert end here. The disk
// is not stored, but its ID stays taken — nextID moves past it — and is
// remembered so that a later update or delete of it in the same log tail,
// or in an older primary's replication stream, is a no-op.
func (st *state) dropDisk(id uint64) {
	if st.nextID <= id {
		st.nextID = id + 1
	}
	st.dropped[id] = struct{}{}
}

// region returns slot i's support interval from resident metadata.
func (st *state) region(i int) geom.Interval {
	r := st.recs.At(i)
	return geom.Interval{Lo: r.lo, Hi: r.hi}
}

// ownIDs unshares the slots backing array before a structural mutation.
// Appends never need this — a published view's slice is capped at its
// length, so growth past it is invisible — but a delete swaps and shrinks,
// and a later append would then overwrite a position readers still see.
func (st *state) ownIDs() {
	if st.idsShared {
		st.slots = append([]uint64(nil), st.slots...)
		st.idsShared = false
	}
}

// Store is the durable uncertain-object store. All mutations flow through
// Apply; a single committer goroutine validates, logs, group-commits and
// publishes MVCC views. Create one with Open; it is safe for concurrent use.
type Store struct {
	dir  string
	opt  Options
	role Role
	wal  *wal
	lock *os.File // flock'd LOCK file; held for the store's lifetime
	view atomic.Pointer[View]

	sendMu sync.Mutex // guards reqCh against send-after-close
	closed bool
	reqCh  chan *request
	doneCh chan struct{}

	watchMu        sync.Mutex // guards watchers, watchersClosed, per-Sub flags
	watchers       map[*Sub]struct{}
	watchersClosed bool
	watchDropped   atomic.Uint64

	broken atomic.Bool

	baseRef atomic.Pointer[base] // mirrors st.base for Stats readers
	overlay atomic.Int64         // mirrors st.resident for Stats readers
	dropped atomic.Int64         // mirrors len(st.dropped) for Stats readers

	opsApplied  atomic.Uint64
	commits     atomic.Uint64
	walSize     atomic.Uint64
	walAppended atomic.Uint64
	checkpoints atomic.Uint64
	ckptNanos   atomic.Uint64
	fullFlat    atomic.Uint64
	appendFlat  atomic.Uint64
	flatBytes   atomic.Uint64
	flatCopied  atomic.Uint64
	ckptSeq     atomic.Uint64 // WAL seq covered by the latest checkpoint
	ckptTime    atomic.Int64  // unix nanos of the latest checkpoint write
	tornTail    bool

	st *state // owned by the committer goroutine (and by Open/Close around it)
}

type request struct {
	ops        []Op
	rep        []LogRecord // replicated records (follower stores only)
	install    []byte      // snapshot stream to install (follower stores only)
	sync       *syncArgs   // replication sync request (runs standalone)
	checkpoint bool        // flatten after the group: a full rewrite unless auto
	auto       bool        // flatten as the WAL-size trigger does (tests and benchmarks)
	resp       chan result
}

type result struct {
	res ApplyResult
	err error
}

// Open opens (creating if necessary) the store in dir and recovers its
// state: load the latest checkpoint, replay intact WAL records past it, and
// truncate any torn tail. The recovered view is available immediately.
func Open(dir string, opt Options) (*Store, error) {
	return openStore(dir, opt, RolePrimary)
}

func openStore(dir string, opt Options, role Role) (*Store, error) {
	if opt.CheckpointBytes == 0 {
		opt.CheckpointBytes = DefaultCheckpointBytes
	}
	if opt.CacheBytes == 0 {
		opt.CacheBytes = DefaultCacheBytes
	} else if opt.CacheBytes < pagecache.MinBudget {
		// Resolve the pool's floor here so Stats reports the budget actually
		// in force.
		opt.CacheBytes = pagecache.MinBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	// A temp checkpoint is debris from a crash mid-checkpoint; the rename
	// never happened, so the previous checkpoint + WAL are authoritative.
	os.Remove(filepath.Join(dir, checkpointTmp))

	st, haveCkpt, err := loadCheckpoint(dir, opt.CacheBytes)
	if err != nil {
		return nil, err
	}
	ckptSeq := st.seq

	w, recs, torn, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Seq <= st.seq {
			continue // already covered by the checkpoint
		}
		if rec.Seq != st.seq+1 {
			w.close()
			return nil, fmt.Errorf("store: WAL sequence gap: have %d, record %d", st.seq, rec.Seq)
		}
		if _, _, err := applyDecoded(st, rec.Ops, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("store: replaying WAL record %d: %w", rec.Seq, err)
		}
		st.seq = rec.Seq
		st.version++
	}

	s := &Store{
		dir:      dir,
		opt:      opt,
		role:     role,
		wal:      w,
		lock:     lock,
		reqCh:    make(chan *request, 256),
		doneCh:   make(chan struct{}),
		watchers: map[*Sub]struct{}{},
		st:       st,
		tornTail: torn,
	}
	s.walAppended.Store(uint64(w.size))
	s.walSize.Store(uint64(w.size))
	s.baseRef.Store(st.base)
	if haveCkpt {
		s.ckptSeq.Store(ckptSeq)
		// The inherited checkpoint's age starts from when the previous
		// process wrote it, not from this boot.
		if info, serr := os.Stat(filepath.Join(dir, checkpointName)); serr == nil {
			s.ckptTime.Store(info.ModTime().UnixNano())
		}
	}
	// The index is built from the recovered slot table, whatever kind of
	// checkpoint it came from.
	view, err := s.materialize(nil, nil, true)
	if err != nil {
		w.close()
		return nil, err
	}
	s.view.Store(view)
	if torn {
		s.logger().Warn("recovery dropped a torn WAL tail", "dir", dir)
	}
	if n := len(st.dropped); n > 0 {
		s.logger().Warn("recovery dropped 2-D disks: the store holds 1-D objects only, 2-D runs in cpnn-query",
			"dir", dir, "disks", n)
	}
	s.logger().Info("store recovered",
		"dir", dir, "version", view.Version, "seq", view.Seq,
		"objects_1d", view.Dataset.Len(),
		"wal_records", len(recs), "checkpoint", haveCkpt)
	go s.committer()
	ok = true
	return s, nil
}

// logger returns the configured structured logger, or a discard logger.
func (s *Store) logger() *slog.Logger {
	if s.opt.Logger != nil {
		return s.opt.Logger
	}
	return discardLogger
}

var discardLogger = slog.New(slog.DiscardHandler)

// View returns the current MVCC view. It never blocks on writers.
func (s *Store) View() *View { return s.view.Load() }

// Stats returns a snapshot of the operational counters.
func (s *Store) Stats() Stats {
	v := s.View()
	s.watchMu.Lock()
	subs := len(s.watchers)
	s.watchMu.Unlock()
	// A checkpoint racing this read can momentarily advance ckptSeq past the
	// loaded view's Seq; clamp instead of underflowing.
	var walRecs uint64
	if ck := s.ckptSeq.Load(); v.Seq > ck {
		walRecs = v.Seq - ck
	}
	out := Stats{
		FeedSubscribers:        subs,
		FeedDropped:            s.watchDropped.Load(),
		Role:                   s.role,
		OpsApplied:             s.opsApplied.Load(),
		Commits:                s.commits.Load(),
		WALBytes:               s.walSize.Load(),
		WALAppendedBytes:       s.walAppended.Load(),
		Checkpoints:            s.checkpoints.Load(),
		CheckpointNanos:        s.ckptNanos.Load(),
		FullFlattens:           s.fullFlat.Load(),
		AppendedFlattens:       s.appendFlat.Load(),
		FlattenBytes:           s.flatBytes.Load(),
		FlattenCopied:          s.flatCopied.Load(),
		WALRecords:             walRecs,
		LastCheckpointUnixNano: s.ckptTime.Load(),
		TornTailDropped:        s.tornTail,
		Version:                v.Version,
		Seq:                    v.Seq,
		Objects1D:              v.Dataset.Len(),
		DroppedDisks:           int(s.dropped.Load()),
	}
	out.CacheBytes = s.opt.CacheBytes
	if b := s.baseRef.Load(); b != nil {
		out.PageCache = b.pool.Stats()
		out.BasePages = b.f.NumPages()
		out.Generation, out.CompactedBytes = b.hdr.gen, b.hdr.compacted
	}
	// The resident counter and the loaded view are separate atomics; a
	// racing commit can skew them by a batch. Clamp instead of going negative.
	ov := int(s.overlay.Load())
	if ov > out.Objects1D {
		ov = out.Objects1D
	}
	out.OverlaySlots, out.BaseSlots = ov, out.Objects1D-ov
	return out
}

// Apply atomically commits a batch of ops: either every op is validated,
// logged, fsync'd and applied, or none is. Concurrent Apply calls are group
// committed — the committer drains waiting batches and syncs them with one
// fsync. Apply returns only after the batch is durable (unless Options.NoSync)
// and its view published.
func (s *Store) Apply(ops []Op) (ApplyResult, error) {
	if s.role == RoleFollower {
		return ApplyResult{}, ErrFollower
	}
	if len(ops) == 0 {
		return ApplyResult{}, fmt.Errorf("%w: empty batch", ErrInvalidOp)
	}
	return s.submit(&request{ops: ops, resp: make(chan result, 1)})
}

// Checkpoint flattens the current state into a new paged base file — a
// full rewrite, whose bytes are a function of the logical state alone — and
// resets the WAL. It runs on the committer, serialized with commits.
func (s *Store) Checkpoint() error {
	_, err := s.submit(&request{checkpoint: true, resp: make(chan result, 1)})
	return err
}

func (s *Store) submit(r *request) (ApplyResult, error) {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return ApplyResult{}, ErrClosed
	}
	s.reqCh <- r
	s.sendMu.Unlock()
	out := <-r.resp
	return out.res, out.err
}

// Close stops the committer, flushes and closes the WAL, and releases the
// store. Pending Apply calls complete first. Close does not checkpoint;
// callers wanting a fast next open (and an empty WAL) call Checkpoint first,
// as cpnn-serve does on graceful shutdown.
func (s *Store) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.reqCh)
	s.sendMu.Unlock()
	<-s.doneCh
	s.closeWatchers()

	var first error
	if !s.broken.Load() {
		if err := s.wal.sync(); err != nil {
			first = err
		}
	}
	if err := s.wal.close(); err != nil && first == nil {
		first = err
	}
	s.lock.Close() // releases the flock
	return first
}

// maxGroup caps how many waiting batches one commit group absorbs.
const maxGroup = 128

// committer is the single mutation loop: it drains waiting requests into a
// group, stages each batch (validate → encode → decode → apply), writes all
// records with one WAL append and one fsync, then publishes one view
// covering the whole group and answers every waiter. Replication sync and
// snapshot-install requests run standalone between groups, so they always
// see an on-disk log consistent with the in-memory position.
func (s *Store) committer() {
	defer close(s.doneCh)
	var pending *request
	for {
		req := pending
		pending = nil
		if req == nil {
			var ok bool
			if req, ok = <-s.reqCh; !ok {
				return
			}
		}
		if req.sync != nil {
			s.handleSync(req)
			continue
		}
		if req.install != nil {
			s.handleInstall(req)
			continue
		}
		group := []*request{req}
	drain:
		for len(group) < maxGroup {
			select {
			case r, more := <-s.reqCh:
				if !more {
					break drain // outer receive sees the close and exits
				}
				if r.sync != nil || r.install != nil {
					pending = r // commit the group first, then run it standalone
					break drain
				}
				group = append(group, r)
			default:
				break drain
			}
		}
		s.commitGroup(group)
	}
}

func (s *Store) commitGroup(group []*request) {
	if s.broken.Load() {
		for _, r := range group {
			r.resp <- result{err: ErrBroken}
		}
		return
	}

	var (
		buf       []byte
		edits     []filter.Edit
		rebuild   bool
		committed []*request
		outcomes  []ApplyResult
		errs      []error // parallel to committed: partial replication errors
		wantCkpt  bool
		fullCkpt  bool // an explicit Checkpoint asked for the flatten
		opsTotal  uint64
		batches   uint64
		rec       deltaRec
	)
	for _, r := range group {
		if s.broken.Load() {
			// A partial state mutation earlier in this group poisoned the
			// in-memory tables; staging further batches against them would
			// persist records a clean recovery cannot replay.
			r.resp <- result{err: ErrBroken}
			continue
		}
		if r.checkpoint {
			wantCkpt, fullCkpt = true, fullCkpt || !r.auto
			committed = append(committed, r)
			outcomes = append(outcomes, ApplyResult{})
			errs = append(errs, nil)
			continue
		}
		if len(r.rep) > 0 {
			// Replicated records: stage each in turn. On the first bad record
			// the cleanly staged prefix still commits (those records were
			// valid primary history); the error rides back with the last
			// committed position so the follower resyncs from there.
			var (
				last   ApplyResult
				repErr error
				n      int
			)
			for _, lr := range r.rep {
				stg, err := s.stageReplicated(lr, &rec)
				if err != nil {
					repErr = err
					break
				}
				buf = appendWALRecord(buf, stg.seq, stg.payload)
				edits = append(edits, stg.edits...)
				rebuild = rebuild || stg.rebuild
				opsTotal += uint64(stg.nops)
				batches++
				rec.records = append(rec.records, LogRecord{Seq: stg.seq, Version: stg.version, Payload: stg.payload})
				last = ApplyResult{Version: stg.version, Seq: stg.seq}
				n++
			}
			if n == 0 {
				r.resp <- result{err: repErr}
				continue
			}
			committed = append(committed, r)
			outcomes = append(outcomes, last)
			errs = append(errs, repErr)
			continue
		}
		staged, err := s.stageBatch(r.ops, &rec)
		if err != nil {
			r.resp <- result{err: err}
			continue
		}
		buf = appendWALRecord(buf, staged.seq, staged.payload)
		edits = append(edits, staged.edits...)
		rebuild = rebuild || staged.rebuild
		opsTotal += uint64(len(r.ops))
		batches++
		rec.records = append(rec.records, LogRecord{Seq: staged.seq, Version: staged.version, Payload: staged.payload})
		committed = append(committed, r)
		outcomes = append(outcomes, ApplyResult{Version: staged.version, Seq: staged.seq, IDs: staged.ids})
		errs = append(errs, nil)
	}

	if s.broken.Load() {
		// stageBatch poisoned the state partway through the group: even the
		// batches staged before the failure cannot be published, because the
		// view would be materialized from the poisoned tables. Nothing was
		// written; a reopen recovers the last durable state.
		for _, r := range committed {
			r.resp <- result{err: ErrBroken}
		}
		return
	}

	if len(buf) > 0 {
		err := s.wal.append(buf)
		if err == nil && !s.opt.NoSync {
			err = s.wal.sync()
		}
		if err != nil {
			// State is ahead of disk; refuse everything from here on. The
			// published view still reflects only durable commits.
			s.broken.Store(true)
			for _, r := range committed {
				r.resp <- result{err: fmt.Errorf("%w: %v", ErrBroken, err)}
			}
			return
		}
		total := s.walAppended.Add(uint64(len(buf)))
		s.walSize.Store(uint64(s.wal.size))
		// Fix up cumulative byte offsets now that the group's position in the
		// appended stream is known.
		cum := total - uint64(len(buf))
		for i := range rec.records {
			cum += uint64(walHeaderSize + 8 + len(rec.records[i].Payload))
			rec.records[i].WALOffset = cum
		}

		view, err := s.materialize(s.View(), edits, rebuild)
		if err != nil {
			// Index maintenance failed (internal invariant violation): the
			// durable log is fine, so a reopen recovers; this process stops.
			s.broken.Store(true)
			for _, r := range committed {
				r.resp <- result{err: fmt.Errorf("store: publishing view: %w", err)}
			}
			return
		}
		s.view.Store(view)
		s.opsApplied.Add(opsTotal)
		s.commits.Add(batches)
		s.publish(view, &rec)
	}

	if wantCkpt || (s.opt.CheckpointBytes > 0 && s.wal.size >= s.opt.CheckpointBytes) {
		if err := s.checkpointLocked(!fullCkpt); err != nil {
			for i, r := range committed {
				if r.checkpoint {
					r.resp <- result{err: err}
					committed[i] = nil
				}
			}
		}
	}
	for i, r := range committed {
		if r != nil {
			r.resp <- result{res: outcomes[i], err: errs[i]}
		}
	}
}

// staged is one batch ready for the WAL.
type staged struct {
	seq, version uint64
	payload      []byte
	ids          []uint64
	edits        []filter.Edit
	rebuild      bool
	nops         int
}

// stageBatch validates ops against the live state, assigns stable IDs to
// inserts, encodes the batch, and applies the *decoded* encoding to the
// state — the same bytes recovery will replay, so a recovered store is
// bit-identical to the live one by construction. On a validation error the
// state is untouched.
func (s *Store) stageBatch(ops []Op, rec *deltaRec) (staged, error) {
	st := s.st
	assigned, ids, err := ValidateOps(ops, st.live, st.nextID, s.opt.ExplicitIDs)
	if err != nil {
		return staged{}, err
	}
	payload, err := EncodeOps(assigned)
	if err != nil {
		return staged{}, err
	}
	// Mirror the decode-side record cap on the write side: a record larger
	// than the scanner accepts would commit now and then be dropped as a
	// "torn tail" on every future recovery (and past 4 GiB the uint32
	// length prefix would overflow). Refuse it up front instead.
	if len(payload)+8 > MaxWALRecord {
		return staged{}, fmt.Errorf("%w: encoded batch is %d bytes, limit %d — split the batch",
			ErrInvalidOp, len(payload)+8, MaxWALRecord)
	}
	decoded, err := DecodeOps(payload)
	if err != nil {
		return staged{}, err
	}
	edits, rebuild, err := applyDecoded(st, decoded, rec)
	if err != nil {
		// ValidateOps should have caught everything; a failure here means the
		// state mutated partially — unrecoverable in-process.
		s.broken.Store(true)
		return staged{}, fmt.Errorf("store: internal apply failure: %w", err)
	}
	st.seq++
	st.version++
	return staged{
		seq:     st.seq,
		version: st.version,
		payload: payload,
		ids:     ids,
		edits:   edits,
		rebuild: rebuild,
	}, nil
}

// live reports whether stable ID id names a live object.
func (st *state) live(id uint64) bool {
	_, ok := st.slotOf[id]
	return ok
}

// ValidateOps is the one definition of batch validity: it checks ops against
// the live objects plus in-batch effects and returns them with assigned IDs
// alongside the per-op affected IDs. live reports whether a stable ID names
// a live object before the batch — a store's slot map, a shard router's
// cluster-wide owner map, so the two cannot disagree on what a member will
// accept; inserts are numbered from nextID. With explicit set
// (Options.ExplicitIDs), an upsert addressing an unknown non-zero ID is an
// insert under that ID rather than an error.
func ValidateOps(ops []Op, live func(id uint64) bool, nextID uint64, explicit bool) ([]Op, []uint64, error) {
	// Overlay of in-batch existence changes: whether an ID is live after the
	// ops so far; absent = consult live.
	overlay := map[uint64]bool{}
	truncated := false
	current := func(id uint64) bool {
		if v, ok := overlay[id]; ok {
			return v
		}
		return !truncated && live(id)
	}
	out := make([]Op, len(ops))
	ids := make([]uint64, len(ops))
	for i, op := range ops {
		switch op.Code {
		case OpTruncate:
			truncated = true
			overlay = map[uint64]bool{}
			out[i] = op
			continue
		case OpDelete:
			if op.ID == 0 || !current(op.ID) {
				return nil, nil, fmt.Errorf("ops[%d]: delete: %w %d", i, ErrUnknownID, op.ID)
			}
			overlay[op.ID] = false
		case OpUniform, OpHist:
			if op.PDF == nil || codeFor(op.PDF) != op.Code {
				return nil, nil, fmt.Errorf("ops[%d]: %w: pdf %T does not match op code %d",
					i, ErrInvalidOp, op.PDF, op.Code)
			}
			// Zero takes the next counter value; any other ID must address a
			// live object (or, with explicit, inserts under that ID).
			if op.ID == 0 {
				op.ID = nextID
				nextID++
			} else if !current(op.ID) {
				if !explicit {
					return nil, nil, fmt.Errorf("ops[%d]: update: %w %d", i, ErrUnknownID, op.ID)
				}
				if op.ID >= nextID {
					nextID = op.ID + 1
				}
			}
			overlay[op.ID] = true
		default:
			return nil, nil, fmt.Errorf("ops[%d]: %w: unknown code %d", i, ErrInvalidOp, op.Code)
		}
		out[i], ids[i] = op, op.ID
	}
	return out, ids, nil
}

// applyDecoded mutates the state with already-validated decoded ops,
// emitting the incremental index edits (in dense-slot terms). Deletes swap
// the last slot into the hole so dense IDs stay dense; the displaced
// object's index entry moves with it. rebuild reports that the edit stream
// is useless (truncation) and the index must be rebuilt. rec, when non-nil,
// collects the change-feed records (stable-ID terms, old/new MBRs); recovery
// passes nil and pays nothing. WAL replay, snapshot installs and replicated
// records all come through here, so an OpDisk from an older build's log is
// dropped here and nowhere else (dropDisk): it publishes no change.
func applyDecoded(st *state, ops []Op, rec *deltaRec) (edits []filter.Edit, rebuild bool, err error) {
	for _, op := range ops {
		switch op.Code {
		case OpTruncate:
			if rec != nil {
				// Everything changed; per-object records before this point are
				// subsumed by the truncation flag.
				rec.truncated = true
				rec.changes = rec.changes[:0]
			}
			st.slots, st.idsShared = nil, false
			st.recs.Truncate(0)
			st.resident = 0
			st.slotOf = map[uint64]int{}
			clear(st.dropped)
			edits, rebuild = nil, true
		case OpUniform, OpHist:
			if st.nextID <= op.ID {
				st.nextID = op.ID + 1
			}
			sup := op.PDF.Support()
			if slot, ok := st.slotOf[op.ID]; ok {
				old := st.region(slot)
				if rec != nil {
					rec.changes = append(rec.changes, Change{
						ID: op.ID, Kind: ChangeUpdate,
						OldRect: geom.RectFromInterval(old),
						NewRect: geom.RectFromInterval(sup),
					})
				}
				edits = append(edits,
					filter.DeleteEdit(old, slot),
					filter.InsertEdit(sup, slot))
				if st.recs.At(slot).p == nil {
					st.resident++
				}
				st.recs.Set(slot, slotRec{lo: sup.Lo, hi: sup.Hi, p: op.PDF, ref: -1})
			} else {
				if rec != nil {
					rec.changes = append(rec.changes, Change{
						ID: op.ID, Kind: ChangeInsert,
						NewRect: geom.RectFromInterval(sup),
					})
				}
				slot := len(st.slots)
				st.slots = append(st.slots, op.ID)
				st.recs.Append(slotRec{lo: sup.Lo, hi: sup.Hi, p: op.PDF, ref: -1})
				st.resident++
				st.slotOf[op.ID] = slot
				edits = append(edits, filter.InsertEdit(sup, slot))
			}
		case OpDisk:
			st.dropDisk(op.ID) // insert or update alike
		case OpDelete:
			if slot, ok := st.slotOf[op.ID]; ok {
				old := st.region(slot)
				if rec != nil {
					rec.changes = append(rec.changes, Change{
						ID: op.ID, Kind: ChangeDelete,
						OldRect: geom.RectFromInterval(old),
					})
				}
				last := len(st.slots) - 1
				edits = append(edits, filter.DeleteEdit(old, slot))
				if st.recs.At(slot).p != nil {
					st.resident--
				}
				st.ownIDs()
				if slot != last {
					// Move the last object into the vacated slot; its index
					// entry must follow its dense ID.
					lastRegion := st.region(last)
					edits = append(edits,
						filter.DeleteEdit(lastRegion, last),
						filter.InsertEdit(lastRegion, slot))
					st.slots[slot] = st.slots[last]
					st.recs.Set(slot, st.recs.At(last))
					st.slotOf[st.slots[slot]] = slot
				}
				st.slots = st.slots[:last]
				st.recs.Truncate(last)
				delete(st.slotOf, op.ID)
			} else if _, ok := st.dropped[op.ID]; ok {
				delete(st.dropped, op.ID) // the disk was never stored
			} else {
				return nil, false, fmt.Errorf("%w %d", ErrUnknownID, op.ID)
			}
		default:
			return nil, false, fmt.Errorf("%w: code %d", ErrInvalidOp, op.Code)
		}
	}
	return edits, rebuild, nil
}

// materialize builds the immutable view of the current state in O(Δ): the
// dataset is a backed overlay over an O(chunks) snapshot of the slot table
// (fresh payloads resident, unchanged ones faulted from the base checkpoint
// on demand); the IDs slice aliases the state's copy-on-write backing; the
// index is prev's O(1) clone with the group's edits replayed (or a bulk
// rebuild when forced, without prev, or cheaper — see filter.Apply).
func (s *Store) materialize(prev *View, edits []filter.Edit, rebuild bool) (*View, error) {
	st := s.st
	ds := uncertain.NewBackedDataset(viewSource{recs: st.recs.Snapshot(), base: st.base})
	var (
		ix  *filter.Index
		err error
	)
	switch {
	case rebuild || prev == nil:
		ix, err = filter.NewIndex(ds)
	default:
		ix, err = prev.Index.Apply(ds, edits)
	}
	if err != nil {
		return nil, err
	}
	n := len(st.slots)
	st.idsShared = true
	s.overlay.Store(int64(st.resident))
	s.dropped.Store(int64(len(st.dropped)))
	return &View{
		Version: st.version,
		Seq:     st.seq,
		Dataset: ds,
		IDs:     st.slots[:n:n],
		Index:   ix,
		NextID:  st.nextID,
	}, nil
}

// snapshotState captures the live state as a replication snapshot payload:
// every live object as an upsert, plus the position counters. Runs on the
// committer. The ops stay in slot order, which is how the follower assigns
// its slots.
func (s *Store) snapshotState() (checkpointState, error) {
	st := s.st
	ops := make([]Op, len(st.slots))
	for i, id := range st.slots {
		if r := st.recs.At(i); r.p != nil {
			ops[i] = Op{Code: codeFor(r.p), ID: id, PDF: r.p}
		}
	}
	if err := st.scanPayloads(func(slot int, op Op) error {
		ops[slot] = Op{Code: op.Code, ID: st.slots[slot], PDF: op.PDF}
		return nil
	}); err != nil {
		return checkpointState{}, fmt.Errorf("store: snapshot: %w", err)
	}
	return checkpointState{Version: st.version, Seq: st.seq, NextID: st.nextID, Ops: ops}, nil
}

// scanPayloads decodes the payload record of every slot of st that holds
// only a ref and hands it to fn with the slot. The records are read through
// a scanner of the base log, never the readers' page cache, in ref order
// across every generation of the file, so each page is read once and the
// queries' pages stay cached.
func (st *state) scanPayloads(fn func(slot int, op Op) error) error {
	type lazy struct {
		ref  int64
		slot int
	}
	var faults []lazy
	for i := range st.slots {
		if r := st.recs.At(i); r.p == nil {
			faults = append(faults, lazy{ref: r.ref, slot: i})
		}
	}
	if len(faults) == 0 { // and so possibly no base
		return nil
	}
	slices.SortFunc(faults, func(a, b lazy) int { return cmp.Compare(a.ref, b.ref) })
	scan := st.base.log.Scanner()
	for _, f := range faults {
		rec, err := scan.Record(f.ref)
		var op Op
		if err == nil {
			op, err = decodePayload(rec, f.ref)
		}
		if err != nil {
			return fmt.Errorf("slot %d (id %d): %w", f.slot, st.slots[f.slot], err)
		}
		if err := fn(f.slot, op); err != nil {
			return err
		}
	}
	return nil
}

// encodeSnapshot serializes the live state as a replication snapshot stream.
func (s *Store) encodeSnapshot() ([]byte, error) {
	cs, err := s.snapshotState()
	if err != nil {
		return nil, err
	}
	return encodeCheckpoint(cs)
}

// checkpointLocked runs on the committer goroutine with exclusive state
// access and flattens the live state into a new base: a full rewrite, or
// with auto set an appended generation where the base allows one.
func (s *Store) checkpointLocked(auto bool) error {
	if s.broken.Load() {
		return ErrBroken
	}
	return s.flatten(s.st, auto)
}

// flatten is the one way state reaches disk as a checkpoint: write st to the
// paged checkpoint durably, then drop the overlay — every slot rebinds to
// its record in the new base and gives up its decoded payload, so resident
// memory returns to metadata plus page-cache budget — and reset the WAL (its
// records are now redundant). It runs on the committer. st is the live
// state for a plain checkpoint and InstallSnapshot's scratch state for a
// bootstrap; until the new generation is durable a failure leaves st, the
// live state, the WAL and checkpoint.db's live generation as they were.
//
// With auto set (only ever for the live state) and st.appendable(), st is
// appended to the base file as a new generation (appendGeneration);
// otherwise the file is rewritten whole (writeCheckpointPaged).
func (s *Store) flatten(st *state, auto bool) error {
	start := time.Now()
	var (
		b        *base
		work     flattenWork
		err      error
		appended = auto && st.appendable()
	)
	if appended {
		b, work, err = appendGeneration(st.base, st)
	} else {
		b, work, err = writeCheckpointPaged(s.dir, st, s.opt.CacheBytes)
	}
	if err != nil {
		return err
	}
	// The new generation is durable and st is bound to it: it is the file's
	// live one from here on, whatever the WAL reset does, and a later append
	// must extend it.
	st.resident = 0
	st.base = b
	s.baseRef.Store(b)
	s.overlay.Store(0)
	if err := s.wal.reset(); err != nil {
		if st != s.st {
			// checkpoint.db now holds a position the live state never
			// reached. The stale WAL records all have seq <= st.seq and
			// recovery would skip them, but the in-memory bookkeeping no
			// longer matches the file — refuse further mutations. (A plain
			// checkpoint only reports the error: its st is the live state,
			// which the un-reset WAL still extends.)
			s.broken.Store(true)
		}
		return err
	}
	s.walSize.Store(0)
	s.ckptSeq.Store(st.seq)
	s.ckptTime.Store(time.Now().UnixNano())
	s.checkpoints.Add(1)
	if appended {
		s.appendFlat.Add(1)
	} else {
		s.fullFlat.Add(1)
	}
	s.flatBytes.Add(uint64(work.bytes))
	s.flatCopied.Add(uint64(work.copied))
	s.ckptNanos.Add(uint64(time.Since(start).Nanoseconds()))
	s.logger().Debug("checkpoint written",
		"seq", st.seq, "version", st.version, "appended", appended, "generation", b.hdr.gen,
		"objects", len(st.slots), "pages", b.f.NumPages(), "bytes", work.bytes,
		"elapsed", time.Since(start))
	return nil
}

// DatasetOps converts a dataset into the op batch that loads it: a truncate
// followed by one insert per object, in ID order — how POST /v1/dataset
// reloads become durable. Every pdf must have a durable encoding (uniform or
// histogram).
func DatasetOps(ds *uncertain.Dataset) ([]Op, error) {
	ops := make([]Op, 0, ds.Len()+1)
	ops = append(ops, Truncate())
	for _, o := range ds.Objects() {
		code := codeFor(o.PDF)
		if code == 0 {
			return nil, fmt.Errorf("%w: object %d: pdf %T has no durable encoding",
				ErrInvalidOp, o.ID, o.PDF)
		}
		ops = append(ops, Op{Code: code, PDF: o.PDF})
	}
	return ops, nil
}
