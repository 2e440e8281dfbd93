package store

// Replication support: the store's WAL doubles as a replication log. A
// primary serves it through SyncFrom — history from the on-disk log (or a
// full snapshot when a checkpoint already truncated the requested range)
// plus a live tail that is an ordinary change-feed subscription (Watch):
// every Delta carries its commit group's records, and a Gap or a delta with
// no records tells the reader to call SyncFrom again from where it got to.
// A follower store (OpenFollower) replays shipped records through
// ApplyReplicated — the exact payload bytes the primary committed, so the
// replayed state is bit-identical by construction — and bootstraps or
// re-bootstraps through InstallSnapshot. Followers write the records to
// their own WAL and take their own checkpoints, so a restarted follower
// resumes from its local position instead of re-shipping history.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Role says which side of replication a store is on.
type Role uint8

const (
	// RolePrimary is a read-write store (the default).
	RolePrimary Role = iota
	// RoleFollower is a read-only replica: Apply is rejected and mutations
	// arrive only through ApplyReplicated / InstallSnapshot.
	RoleFollower
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// ErrFollower is returned by Apply on a follower store; servers surface it
// as a redirect to the primary.
var ErrFollower = errors.New("store: follower is read-only (route writes to the primary)")

// ErrOutOfSync reports a replicated record or snapshot that does not extend
// the follower's log. The follower state is untouched; the caller resyncs
// from View().Seq, typically by reconnecting to the primary.
var ErrOutOfSync = errors.New("store: replicated record out of sync")

// ErrDiverged reports a sync request from a position this store's log has
// never reached: the requester replays a different history (e.g. a data dir
// that followed another primary) and needs a manual re-bootstrap.
var ErrDiverged = errors.New("store: requested sync position is ahead of the log")

// LogRecord is one committed batch as shipped over replication.
type LogRecord struct {
	// Seq is the batch's WAL sequence number; Version the store version its
	// commit published. Both increase by exactly one per record.
	Seq, Version uint64
	// WALOffset is the origin's cumulative appended-WAL-bytes counter
	// (Stats.WALAppendedBytes) just past this record. Followers compare it
	// against the primary's advertised total to measure byte lag.
	WALOffset uint64
	// Payload is the encoded op batch — the exact WAL record bytes after the
	// sequence number. Replaying them decodes to bit-identical state.
	Payload []byte
}

// SyncResult is one consistent replication handoff: everything through Seq
// is covered by Snapshot or Records, everything after arrives on Sub.
type SyncResult struct {
	// Seq and Version are the store position the result was taken at.
	Seq, Version uint64
	// WALAppended is the cumulative appended-bytes counter at that position
	// — the byte-lag yardstick matching LogRecord.WALOffset.
	WALAppended uint64
	// Snapshot, when non-nil, is a full state snapshot (the snapshot stream:
	// a position header plus one upsert per live object — see
	// encodeCheckpoint) the consumer must install via InstallSnapshot before
	// consuming Sub: the log no longer reaches back to the requested
	// sequence. Records is empty in that case.
	Snapshot []byte
	// Records are the historical records [fromSeq, Seq], contiguous.
	Records []LogRecord
	// Sub is a change-feed subscription registered at Seq: its deltas carry
	// the records committed after it (Delta.Records). The caller owns it and
	// must Close it when done.
	Sub *Sub
}

// SyncFrom assembles everything a follower needs to catch up from fromSeq
// (its last applied sequence + 1): either the historical records still in
// the WAL or a full snapshot, plus a Watch subscription (buffer as for Watch)
// registered atomically at the same position — no record is ever missed or
// duplicated between the two. It runs on the committer, serialized with
// commits and checkpoints.
func (s *Store) SyncFrom(fromSeq uint64, buffer int) (*SyncResult, error) {
	args := &syncArgs{fromSeq: fromSeq, buffer: buffer}
	if _, err := s.submit(&request{sync: args, resp: make(chan result, 1)}); err != nil {
		return nil, err
	}
	return args.out, nil
}

// syncArgs carries a SyncFrom request to the committer and its result back.
type syncArgs struct {
	fromSeq uint64
	buffer  int
	out     *SyncResult
}

// handleSync runs on the committer between commit groups, so the on-disk WAL
// is exactly consistent with the in-memory position.
func (s *Store) handleSync(r *request) {
	if s.broken.Load() {
		r.resp <- result{err: ErrBroken}
		return
	}
	a := r.sync
	st := s.st
	from := a.fromSeq
	if from == 0 {
		from = 1
	}
	if from > st.seq+1 {
		r.resp <- result{err: fmt.Errorf("%w: have seq %d, requested %d", ErrDiverged, st.seq, from)}
		return
	}
	out := &SyncResult{Seq: st.seq, Version: st.version, WALAppended: s.walAppended.Load()}
	if from <= st.seq { // history needed
		if recs, ok := s.readLogHistory(from); ok {
			out.Records = recs
		} else {
			// The log no longer covers [from, seq] (a checkpoint truncated
			// it): bootstrap with a full snapshot instead.
			stream, err := s.encodeSnapshot()
			if err != nil {
				r.resp <- result{err: fmt.Errorf("store: encoding snapshot: %w", err)}
				return
			}
			out.Snapshot = stream
		}
	}
	sub, err := s.Watch(a.buffer)
	if err != nil {
		r.resp <- result{err: err}
		return
	}
	out.Sub = sub
	a.out = out
	r.resp <- result{}
}

// readLogHistory reads the records with seq >= from out of the on-disk WAL.
// ok=false means the log does not cover [from, current] contiguously
// (records before the latest checkpoint are gone) and the caller must fall
// back to a snapshot. Runs on the committer: no append, reset or checkpoint
// can race the read.
func (s *Store) readLogHistory(from uint64) ([]LogRecord, bool) {
	f, err := os.Open(filepath.Join(s.dir, walName))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	recs, _, _, err := scanWAL(f)
	if err != nil {
		return nil, false
	}
	st := s.st
	// Cumulative-bytes base: everything appended before the current WAL
	// content (WAL resets keep the counter running).
	base := s.walAppended.Load() - uint64(s.wal.size)
	out := make([]LogRecord, 0, len(recs))
	next := from
	for _, rec := range recs {
		if rec.Seq < from {
			continue
		}
		if rec.Seq != next {
			return nil, false
		}
		out = append(out, LogRecord{
			Seq:       rec.Seq,
			Version:   st.version - (st.seq - rec.Seq),
			WALOffset: base + uint64(rec.End),
			Payload:   rec.Payload,
		})
		next++
	}
	if next != st.seq+1 {
		return nil, false
	}
	return out, true
}

// Role returns the store's replication role.
func (s *Store) Role() Role { return s.role }

// OpenFollower opens (creating if necessary) a read-only replica store in
// dir, recovering exactly like Open: latest checkpoint plus intact WAL
// records, torn tail truncated. Mutations arrive only through
// ApplyReplicated and InstallSnapshot; Apply returns ErrFollower. Everything
// else — MVCC views, the change feed, checkpoints, even SyncFrom for chained
// replicas — behaves identically to a primary.
func OpenFollower(dir string, opt Options) (*Store, error) {
	return openStore(dir, opt, RoleFollower)
}

// ApplyReplicated appends primary-committed records to a follower's log and
// replays them: each record is CRC-framed into the local WAL (group
// committed and fsync'd exactly like primary batches), applied through the
// same decoded-ops machinery, and published as a new MVCC view with change
// deltas — so monitors and servers riding the follower's feed work
// unchanged. Records must extend the follower's sequence contiguously; on an
// out-of-sync record the batch's staged prefix still commits durably (those
// records were valid) and the error tells the caller to resync from
// View().Seq+1.
func (s *Store) ApplyReplicated(recs []LogRecord) (ApplyResult, error) {
	if s.role != RoleFollower {
		return ApplyResult{}, fmt.Errorf("store: ApplyReplicated on a %s store", s.role)
	}
	if len(recs) == 0 {
		return ApplyResult{}, fmt.Errorf("%w: empty record batch", ErrInvalidOp)
	}
	return s.submit(&request{rep: recs, resp: make(chan result, 1)})
}

// stageReplicated validates one shipped record against the follower's
// position and applies its decoded ops. The payload bytes are kept verbatim
// for the local WAL, so a follower's log is byte-identical to the stretch of
// the primary's log it replayed.
func (s *Store) stageReplicated(lr LogRecord, rec *deltaRec) (staged, error) {
	st := s.st
	if lr.Seq != st.seq+1 || lr.Version != st.version+1 {
		return staged{}, fmt.Errorf("%w: record seq %d/version %d does not extend seq %d/version %d",
			ErrOutOfSync, lr.Seq, lr.Version, st.seq, st.version)
	}
	if len(lr.Payload)+8 > MaxWALRecord {
		return staged{}, fmt.Errorf("%w: replicated record of %d bytes exceeds the %d limit",
			ErrInvalidOp, len(lr.Payload)+8, MaxWALRecord)
	}
	decoded, err := decodeOps(lr.Payload)
	if err != nil {
		return staged{}, fmt.Errorf("%w: %v", ErrOutOfSync, err)
	}
	edits, rebuild, err := applyDecoded(st, decoded, rec)
	if err != nil {
		// The state mutated partially — unrecoverable in-process, exactly
		// like a primary-side internal apply failure.
		s.broken.Store(true)
		return staged{}, fmt.Errorf("store: replicated apply failure: %w", err)
	}
	st.seq, st.version = lr.Seq, lr.Version
	return staged{
		seq:     lr.Seq,
		version: lr.Version,
		payload: lr.Payload,
		edits:   edits,
		rebuild: rebuild,
		nops:    len(decoded),
	}, nil
}

// InstallSnapshot wholesale-replaces a follower's state with a primary
// snapshot (SyncResult.Snapshot): the stream is decoded and loaded into a
// scratch state off to the side, flattened into the local paged checkpoint
// by the routine Checkpoint uses (tmp+fsync+rename — a crash on either side
// of the rename recovers a consistent store — then the local WAL is reset),
// and one view with a Truncated delta is published so every derived consumer
// rebuilds. That delta carries no records — a snapshot is a hole in the log —
// so chained replication tails re-sync. The installed state is paged from its
// first view: payloads fault from the new base, nothing stays resident in the
// overlay. Snapshots older than the local version are rejected with
// ErrOutOfSync — replication never moves a follower backwards.
func (s *Store) InstallSnapshot(stream []byte) error {
	if s.role != RoleFollower {
		return fmt.Errorf("store: InstallSnapshot on a %s store", s.role)
	}
	_, err := s.submit(&request{install: stream, resp: make(chan result, 1)})
	return err
}

// handleInstall runs on the committer with exclusive state access.
func (s *Store) handleInstall(r *request) {
	if s.broken.Load() {
		r.resp <- result{err: ErrBroken}
		return
	}
	cs, err := decodeCheckpoint(r.install)
	if err != nil {
		r.resp <- result{err: fmt.Errorf("%w: %v", ErrOutOfSync, err)}
		return
	}
	if cs.Version < s.st.version {
		r.resp <- result{err: fmt.Errorf("%w: snapshot version %d behind local %d",
			ErrOutOfSync, cs.Version, s.st.version)}
		return
	}
	st := newState()
	st.version, st.seq, st.nextID = cs.Version, cs.Seq, cs.NextID
	if _, _, err := applyDecoded(st, cs.Ops, nil); err != nil {
		// st is a scratch state; the live one is untouched.
		r.resp <- result{err: fmt.Errorf("%w: loading snapshot: %v", ErrOutOfSync, err)}
		return
	}
	if err := s.flatten(st, false); err != nil {
		r.resp <- result{err: err}
		return
	}
	s.st = st
	view, err := s.materialize(nil, nil, nil, true)
	if err != nil {
		s.broken.Store(true)
		r.resp <- result{err: fmt.Errorf("store: publishing snapshot view: %w", err)}
		return
	}
	s.view.Store(view)
	s.publish(view, &deltaRec{truncated: true})
	r.resp <- result{res: ApplyResult{Version: cs.Version, Seq: cs.Seq}}
}
