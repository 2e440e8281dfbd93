package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ServerConfig configures the primary-side replication listener.
type ServerConfig struct {
	// Store is the primary store whose log is served. Required.
	Store *store.Store
	// Addr is the TCP listen address (e.g. ":7071" or "127.0.0.1:0").
	Addr string
	// AdvertiseHTTP, when set, is the primary's HTTP address sent to
	// followers so they can redirect writes.
	AdvertiseHTTP string
	// HeartbeatEvery is the idle-stream heartbeat period; 0 means 1s.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds each frame write; 0 means 10s.
	WriteTimeout time.Duration
}

// ServerStats is a snapshot of a replication server's counters.
type ServerStats struct {
	// Followers is the number of currently connected followers.
	Followers int64
	// RecordsShipped and BytesShipped count record frames sent (bytes count
	// op payloads, matching WAL byte accounting).
	RecordsShipped, BytesShipped uint64
	// SnapshotsSent counts snapshot bootstraps served.
	SnapshotsSent uint64
	// Heartbeats counts heartbeat frames sent.
	Heartbeats uint64
	// Resyncs counts transparent log re-syncs after a follower's live tail
	// had a hole: it overflowed (a Gap), or a snapshot install on this
	// store broke the log.
	Resyncs uint64
}

// Server streams the store's committed log to followers. One goroutine per
// connection; a connection serves history from the on-disk WAL (or a
// snapshot when the log was truncated past the requested position), then its
// live tail — the records riding a change-feed subscription of
// store.DefaultWatchBuffer deltas — with heartbeats carrying the primary
// position during idle stretches. Start with StartServer; Close stops the
// listener and drops every follower.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	followers      atomic.Int64
	recordsShipped atomic.Uint64
	bytesShipped   atomic.Uint64
	snapshotsSent  atomic.Uint64
	heartbeats     atomic.Uint64
	resyncs        atomic.Uint64
}

// StartServer listens on cfg.Addr and begins accepting followers.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("replica: ServerConfig.Store is required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("replica: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the actual listen address (resolving ":0" ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Followers:      s.followers.Load(),
		RecordsShipped: s.recordsShipped.Load(),
		BytesShipped:   s.bytesShipped.Load(),
		SnapshotsSent:  s.snapshotsSent.Load(),
		Heartbeats:     s.heartbeats.Load(),
		Resyncs:        s.resyncs.Load(),
	}
}

// Close stops the listener, drops every follower connection, and waits for
// the per-connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serve runs one follower connection until it errors, lags beyond recovery
// (never — lag transparently re-syncs), or either side closes.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	// Handshake: one hello frame, bounded.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	t, payload, err := readFrame(conn)
	if err != nil || t != frameHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	s.followers.Add(1)
	defer s.followers.Add(-1)

	// The follower never speaks again on a healthy stream; a reader
	// goroutine watches for EOF and closes gone, so a dead peer or Close
	// tears the writer down promptly instead of at its next write.
	gone := make(chan struct{})
	go func() {
		var one [1]byte
		conn.Read(one[:])
		conn.Close()
		close(gone)
	}()

	w := bufio.NewWriterSize(conn, 64<<10)
	send := func(t frameType, payload []byte) error {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := writeFrame(w, t, payload); err != nil {
			return err
		}
		return w.Flush()
	}

	from := hello.FromSeq
	welcomed := false
	for {
		res, err := s.cfg.Store.SyncFrom(from, 0)
		if err != nil {
			send(frameError, []byte(err.Error()))
			return
		}
		if !welcomed {
			welcomed = true
			wm := welcomeMsg{
				positionMsg: positionMsg{
					Seq: res.Seq, Version: res.Version,
					WALAppended: res.WALAppended, UnixNano: time.Now().UnixNano(),
				},
				HTTPAddr: s.cfg.AdvertiseHTTP,
			}
			if err := send(frameWelcome, wm.encode()); err != nil {
				res.Sub.Close()
				return
			}
		}
		lastSent := res.Seq
		if res.Snapshot != nil {
			sm := snapshotMsg{Seq: res.Seq, Version: res.Version,
				WALAppended: res.WALAppended, Stream: res.Snapshot}
			if err := send(frameSnapshot, sm.encode()); err != nil {
				res.Sub.Close()
				return
			}
			s.snapshotsSent.Add(1)
		}
		for _, rec := range res.Records {
			if err := s.sendRecord(send, rec); err != nil {
				res.Sub.Close()
				return
			}
		}
		again, ok := s.streamTail(send, res.Sub, gone, &lastSent)
		res.Sub.Close()
		if !ok {
			return
		}
		if !again {
			return // store closed; nothing more will ever commit
		}
		// The live tail had a hole: pick history back up from where we got to.
		s.resyncs.Add(1)
		from = lastSent + 1
	}
}

func (s *Server) sendRecord(send func(frameType, []byte) error, rec store.LogRecord) error {
	rm := recordMsg{Seq: rec.Seq, Version: rec.Version, WALOffset: rec.WALOffset, Payload: rec.Payload}
	if err := send(frameRecord, rm.encode()); err != nil {
		return err
	}
	s.recordsShipped.Add(1)
	s.bytesShipped.Add(uint64(len(rec.Payload)))
	return nil
}

// streamTail relays the live subscription's records until it closes or the
// connection dies. Returns (resync, ok): resync means the tail has a hole —
// a Gap, or a delta whose records are missing or do not start at
// lastSent+1 — and the caller should re-sync from lastSent+1; !ok means the
// connection is done, including once gone closes.
func (s *Server) streamTail(send func(frameType, []byte) error, sub *store.Sub, gone <-chan struct{}, lastSent *uint64) (bool, bool) {
	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case <-gone:
			return false, false
		case d, ok := <-sub.C():
			if !ok {
				return false, true // store closed
			}
			if len(d.Records) == 0 || d.Records[0].Seq != *lastSent+1 {
				return true, true
			}
			for _, rec := range d.Records {
				if err := s.sendRecord(send, rec); err != nil {
					return false, false
				}
				*lastSent = rec.Seq
			}
		case <-hb.C:
			v := s.cfg.Store.View()
			pm := positionMsg{
				Seq: v.Seq, Version: v.Version,
				WALAppended: s.cfg.Store.Stats().WALAppendedBytes,
				UnixNano:    time.Now().UnixNano(),
			}
			if err := send(frameHeartbeat, pm.encode(nil)); err != nil {
				return false, false
			}
			s.heartbeats.Add(1)
		}
	}
}
