package replica

import (
	"net"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/store"
)

// dialRaw opens a raw replication connection asking for history from
// fromSeq and reads the welcome frame; the caller drives the rest of the
// stream with readFrame.
func dialRaw(t *testing.T, addr string, fromSeq uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writeFrame(conn, frameHello, helloMsg{FromSeq: fromSeq}.encode()); err != nil {
		conn.Close()
		t.Fatalf("hello: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(waitTimeout))
	if ft, _, err := readFrame(conn); err != nil || ft != frameWelcome {
		conn.Close()
		t.Fatalf("welcome: type %d, err %v", ft, err)
	}
	return conn
}

// A follower that stops reading backs the primary's writes up into the
// socket, so the live tail overflows while it is stalled. The server must
// pick history back up from the WAL where it left off: once the follower
// reads again it sees every record exactly once, in order, with no snapshot.
func TestLiveTailOverflowResyncs(t *testing.T) {
	p, err := store.Open(t.TempDir(), store.Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := StartServer(ServerConfig{
		Store:          p,
		Addr:           "127.0.0.1:0",
		HeartbeatEvery: 50 * time.Millisecond,
		WriteTimeout:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := dialRaw(t, srv.Addr(), 1)
	defer conn.Close()

	// One 1,000-bar histogram rewritten over and over: ≈16 KB a record, far
	// more in total than the socket buffers hold.
	const bars, commits = 1000, 2000
	hist := func(round int) pdf.PDF {
		edges, weights := make([]float64, bars+1), make([]float64, bars)
		for i := range edges {
			edges[i] = float64(i)
		}
		for i := range weights {
			weights[i] = float64(1 + (i+round)%7)
		}
		return pdf.MustHistogram(edges, weights)
	}
	res, err := p.Apply([]store.Op{store.InsertObject(hist(0))})
	if err != nil {
		t.Fatal(err)
	}
	id := res.IDs[0]
	for round := 1; round < commits; round++ {
		if _, err := p.Apply([]store.Op{store.UpdateObject(id, hist(round))}); err != nil {
			t.Fatal(err)
		}
	}

	conn.SetReadDeadline(time.Now().Add(waitTimeout))
	want := uint64(1)
	for want <= commits {
		ft, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("reading record %d: %v", want, err)
		}
		switch ft {
		case frameHeartbeat:
		case frameRecord:
			rm, err := decodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			if rm.Seq != want {
				t.Fatalf("record seq %d, want %d", rm.Seq, want)
			}
			want++
		default:
			t.Fatalf("frame type %d while streaming, want records and heartbeats only", ft)
		}
	}
	if st := srv.Stats(); st.Resyncs < 1 || st.SnapshotsSent != 0 {
		t.Fatalf("resyncs %d, snapshots %d: want the overflowed tail re-synced from the WAL",
			st.Resyncs, st.SnapshotsSent)
	}
}

// An idle follower connection sits in the live tail between heartbeats;
// Close must drop it at once, not at the next heartbeat write.
func TestCloseDoesNotWaitForHeartbeat(t *testing.T) {
	p, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := StartServer(ServerConfig{Store: p, Addr: "127.0.0.1:0", HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, srv.Addr(), 1)
	defer conn.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waiting on an idle follower connection after 2s")
	}
}
