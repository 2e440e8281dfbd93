package replica

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/verify"
)

const waitTimeout = 15 * time.Second

// freshEval renders spec's canonical answer body over view, on an engine
// built over the view's own index.
func freshEval(view *store.View, spec monitor.Spec) ([]byte, float64, error) {
	eng, err := core.NewEngineWithIndex(view.Dataset, view.Index)
	if err != nil {
		return nil, 0, err
	}
	return monitor.Evaluate(view, eng, nil, spec)
}

func startPrimary(t *testing.T, dir string) (*store.Store, *Server) {
	t.Helper()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	srv, err := StartServer(ServerConfig{
		Store:          s,
		Addr:           "127.0.0.1:0",
		AdvertiseHTTP:  "http://primary.test",
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		s.Close()
		t.Fatalf("start server: %v", err)
	}
	return s, srv
}

func startFollower(t *testing.T, dir, primary string) (*store.Store, *Follower) {
	t.Helper()
	s, err := store.OpenFollower(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	f, err := StartFollower(FollowerConfig{
		Store:      s,
		Primary:    primary,
		Dir:        dir,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 200 * time.Millisecond,
	})
	if err != nil {
		s.Close()
		t.Fatalf("start follower: %v", err)
	}
	return s, f
}

func waitCaughtUp(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("WaitCaughtUp: %v (last err: %s)", err, f.LastError())
	}
}

// waitConverged polls until the follower store reaches the primary's seq.
func waitConverged(t *testing.T, p, f *store.Store) {
	t.Helper()
	target := p.View().Seq
	deadline := time.Now().Add(waitTimeout)
	for f.View().Seq < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, primary at %d", f.View().Seq, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertEqualState checkpoints both stores and compares the checkpoint files
// byte for byte — bit-identical durable state, not just equal answers.
func assertEqualState(t *testing.T, p *store.Store, pdir string, f *store.Store, fdir string) {
	t.Helper()
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("checkpoint primary: %v", err)
	}
	if err := f.Checkpoint(); err != nil {
		t.Fatalf("checkpoint follower: %v", err)
	}
	if pb, fb := readCheckpointFiles(t, pdir, fdir); !bytes.Equal(pb, fb) {
		t.Fatalf("checkpoint streams differ: primary %d bytes v%d, follower %d bytes v%d",
			len(pb), p.View().Version, len(fb), f.View().Version)
	}
}

// readCheckpointFiles returns the checkpoint files the two directories hold
// right now, without checkpointing either store.
func readCheckpointFiles(t *testing.T, pdir, fdir string) (pb, fb []byte) {
	t.Helper()
	pb, err := os.ReadFile(filepath.Join(pdir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	fb, err = os.ReadFile(filepath.Join(fdir, "checkpoint.db"))
	if err != nil {
		t.Fatal(err)
	}
	return pb, fb
}

func TestFollowerCatchUpAndLiveTail(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	defer p.Close()
	defer srv.Close()

	// History before the follower exists.
	for i := 0; i < 20; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(float64(i), float64(i+1)))}); err != nil {
			t.Fatal(err)
		}
	}

	fs, f := startFollower(t, fdir, srv.Addr())
	defer fs.Close()
	defer f.Close()
	waitCaughtUp(t, f)
	if fs.View().Seq != 20 {
		t.Fatalf("caught-up follower at seq %d", fs.View().Seq)
	}
	if f.PrimaryHTTP() != "http://primary.test" {
		t.Fatalf("PrimaryHTTP = %q", f.PrimaryHTTP())
	}

	// Live tail.
	for i := 0; i < 15; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(float64(i), float64(i)+2))}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, p, fs)
	st := f.Stats()
	if st.RecordsApplied != 35 || st.SnapshotBootstraps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if lag := f.Lag(); lag.Versions != 0 || lag.Bytes != 0 {
		t.Fatalf("converged follower reports lag %+v", lag)
	}
	assertEqualState(t, p, pdir, fs, fdir)

	// replica.json reflects the follower state.
	rs, ok, err := ReadState(fdir)
	if err != nil || !ok {
		t.Fatalf("ReadState: %v ok=%v", err, ok)
	}
	if rs.Role != "follower" || rs.Source != srv.Addr() || !rs.CaughtUp {
		t.Fatalf("state = %+v", rs)
	}
}

func TestFollowerResumesAcrossItsOwnRestart(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	defer p.Close()
	defer srv.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(float64(i), float64(i+2)))}); err != nil {
			t.Fatal(err)
		}
	}
	fs, f := startFollower(t, fdir, srv.Addr())
	waitCaughtUp(t, f)
	f.Close()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Primary moves on while the follower is down.
	for i := 0; i < 5; i++ {
		if _, err := p.Apply([]store.Op{store.UpdateObject(uint64(i+1), pdf.MustUniform(100, 101))}); err != nil {
			t.Fatal(err)
		}
	}

	fs2, f2 := startFollower(t, fdir, srv.Addr())
	defer fs2.Close()
	defer f2.Close()
	if fs2.View().Seq != 10 {
		t.Fatalf("restarted follower recovered seq %d from local WAL, want 10", fs2.View().Seq)
	}
	waitCaughtUp(t, f2)
	waitConverged(t, p, fs2)
	if st := f2.Stats(); st.SnapshotBootstraps != 0 {
		t.Fatalf("resume needed a snapshot bootstrap: %+v", st)
	}
	if st := f2.Stats(); st.RecordsApplied != 5 {
		t.Fatalf("resume re-shipped history: applied %d records, want 5", st.RecordsApplied)
	}
	assertEqualState(t, p, pdir, fs2, fdir)
}

func TestFollowerSurvivesPrimaryRestart(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	for i := 0; i < 8; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(float64(i), float64(i+1)))}); err != nil {
			t.Fatal(err)
		}
	}
	fs, f := startFollower(t, fdir, srv.Addr())
	defer fs.Close()
	defer f.Close()
	waitCaughtUp(t, f)

	// Take the primary down (listener and store) and bring it back on the
	// same address.
	addr := srv.Addr()
	srv.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := store.Open(pdir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	srv2, err := StartServer(ServerConfig{Store: p2, Addr: addr, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("restart server on %s: %v", addr, err)
	}
	defer srv2.Close()
	for i := 0; i < 6; i++ {
		if _, err := p2.Apply([]store.Op{store.InsertObject(pdf.MustUniform(200, 201))}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, p2, fs)
	if st := f.Stats(); st.Reconnects == 0 {
		t.Fatalf("follower converged without counting a reconnect: %+v", st)
	}
	assertEqualState(t, p2, pdir, fs, fdir)
}

func TestSnapshotBootstrapFreshFollower(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	defer p.Close()
	defer srv.Close()
	// Three dozen mixed uniform/histogram objects, then updates and deletes
	// so slot order is not ID order.
	for i := 0; i < 36; i++ {
		lo := float64(3 * i)
		op := store.InsertObject(pdf.MustUniform(lo, lo+5))
		if i%3 == 0 {
			op = store.InsertObject(pdf.MustHistogram([]float64{lo, lo + 2, lo + 7}, []float64{1, float64(i + 2)}))
		}
		if _, err := p.Apply([]store.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Apply([]store.Op{
		store.Delete(4), store.Delete(19),
		store.UpdateObject(7, pdf.MustHistogram([]float64{1, 2, 4}, []float64{3, 1})),
	}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint resets the WAL: a fresh follower cannot be served history.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(1, 3))}); err != nil {
			t.Fatal(err)
		}
	}

	fs, f := startFollower(t, fdir, srv.Addr())
	defer fs.Close()
	defer f.Close()
	waitCaughtUp(t, f)
	waitConverged(t, p, fs)
	if st := f.Stats(); st.SnapshotBootstraps != 1 {
		t.Fatalf("SnapshotBootstraps = %d, want 1", st.SnapshotBootstraps)
	}

	// The bootstrap lands paged, before the follower checkpoints on its own:
	// a v2 file with nothing resident in the overlay, byte-equal to what the
	// primary writes at the same seq.
	st := fs.Stats()
	if st.OverlaySlots != 0 || st.BaseSlots != 37 || st.BasePages == 0 {
		t.Fatalf("bootstrapped follower: overlay %d, base %d slots, %d pages — want 0, 37, > 0",
			st.OverlaySlots, st.BaseSlots, st.BasePages)
	}
	if st.Checkpoints != 1 || st.LastCheckpointUnixNano <= 0 || st.CheckpointNanos == 0 {
		t.Fatalf("bootstrap checkpoint telemetry: %+v", st)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pb, fb := readCheckpointFiles(t, pdir, fdir)
	if !bytes.HasPrefix(fb, []byte("CPNNCKP3")) {
		t.Fatalf("bootstrapped checkpoint magic = %q, want CPNNCKP3", fb[:8])
	}
	if !bytes.Equal(pb, fb) {
		t.Fatalf("bootstrapped checkpoint differs from the primary's at seq %d: %d vs %d bytes",
			fs.View().Seq, len(fb), len(pb))
	}
	// kill -9 right after the install: a copy of the directory reopens to
	// the live follower's view.
	crash := t.TempDir()
	for _, name := range []string{"checkpoint.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(fdir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := store.OpenFollower(crash, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	assertSameView(t, re.View(), fs.View())
	re.Close()

	assertEqualState(t, p, pdir, fs, fdir)

	rs, ok, _ := ReadState(fdir)
	if !ok || rs.SnapshotBootstraps != 1 {
		t.Fatalf("replica.json snapshot count = %+v ok=%v", rs, ok)
	}
}

// assertSameView checks two views hold the same position and tables and
// render the same C-PNN and PNN answers.
func assertSameView(t *testing.T, got, want *store.View) {
	t.Helper()
	if got.Version != want.Version || got.Seq != want.Seq || got.NextID != want.NextID {
		t.Fatalf("view at version %d seq %d nextID %d, want %d/%d/%d",
			got.Version, got.Seq, got.NextID, want.Version, want.Seq, want.NextID)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Fatalf("tables differ: ids %v, want %v", got.IDs, want.IDs)
	}
	for _, q := range []float64{-5, 3, 20, 57.5, 110} {
		for _, sp := range []monitor.Spec{
			{Kind: monitor.KindCPNN, Q: q, Constraint: verify.Constraint{P: 0.3, Delta: 0.01}},
			{Kind: monitor.KindPNN, Q: q},
		} {
			w, _, err := freshEval(want, sp)
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := freshEval(got, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s q=%g diverges:\ngot  %s\nwant %s", sp.Kind, q, g, w)
			}
		}
	}
}

func TestLaggingFollowerRebootstrapsAfterTruncation(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	defer p.Close()
	defer srv.Close()
	for i := 0; i < 6; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(float64(i), float64(i+1)))}); err != nil {
			t.Fatal(err)
		}
	}
	fs, f := startFollower(t, fdir, srv.Addr())
	waitCaughtUp(t, f)
	f.Close()
	fs.Close()

	// While the follower is down, the primary commits more AND checkpoints,
	// truncating the history the follower would need.
	for i := 0; i < 6; i++ {
		if _, err := p.Apply([]store.Op{store.InsertObject(pdf.MustUniform(50, 60))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fs2, f2 := startFollower(t, fdir, srv.Addr())
	defer fs2.Close()
	defer f2.Close()
	waitCaughtUp(t, f2)
	waitConverged(t, p, fs2)
	if st := f2.Stats(); st.SnapshotBootstraps != 1 {
		t.Fatalf("lagging follower should re-bootstrap via snapshot: %+v", st)
	}
	assertEqualState(t, p, pdir, fs2, fdir)
}

// TestReplicaEquivalenceOracle is the correctness gate: for 50 seeded op
// sequences it captures every MVCC view published on both sides and asserts
// the follower's answer to CPNN/PNN/k-NN queries is byte-identical to the
// primary's at every version — replication preserves not just convergence
// but the entire version history.
func TestReplicaEquivalenceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("50 seeded runs")
	}
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalenceSeed(t, seed)
		})
	}
}

func runEquivalenceSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv := startPrimary(t, pdir)
	defer p.Close()
	defer srv.Close()
	fs, err := store.OpenFollower(fdir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// BatchMax 1 makes the follower publish a view at every version instead
	// of collapsing bursts, so every primary version can be compared.
	f, err := StartFollower(FollowerConfig{
		Store: fs, Primary: srv.Addr(), Dir: fdir,
		BackoffMin: 10 * time.Millisecond, BatchMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Record every view both sides publish.
	psub, err := p.Watch(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer psub.Close()
	fsub, err := fs.Watch(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fsub.Close()

	const domain = 10000.0
	randIv := func() (float64, float64) {
		lo := rng.Float64() * domain
		return lo, lo + 1 + rng.Float64()*20
	}
	var ops []store.Op
	for i := 0; i < 40; i++ {
		lo, hi := randIv()
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, hi)))
	}
	res, err := p.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]uint64(nil), res.IDs...)

	for step := 0; step < 8; step++ {
		nops := 1 + rng.Intn(4)
		var batch []store.Op
		for i := 0; i < nops; i++ {
			switch op := rng.Intn(10); {
			case op < 4 && len(live) > 0:
				id := live[rng.Intn(len(live))]
				lo, hi := randIv()
				batch = append(batch, store.UpdateObject(id, pdf.MustUniform(lo, hi)))
			case op < 7:
				lo, hi := randIv()
				hist := []float64{lo, lo + (hi-lo)/2, hi}
				batch = append(batch, store.InsertObject(pdf.MustHistogram(hist, []float64{1 + rng.Float64(), 1})))
			case len(live) > 1:
				i := rng.Intn(len(live))
				batch = append(batch, store.Delete(live[i]))
				live = append(live[:i], live[i+1:]...)
			default:
				lo, hi := randIv()
				batch = append(batch, store.InsertObject(pdf.MustUniform(lo, hi)))
			}
		}
		res, err := p.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range batch {
			if op.Code != store.OpDelete && op.ID == 0 {
				live = append(live, res.IDs[i])
			}
		}
	}
	waitConverged(t, p, fs)

	pviews := drainViews(psub)
	fviews := drainViews(fsub)
	specs := make([]monitor.Spec, 0, 9)
	for i := 0; i < 9; i++ {
		q := rng.Float64() * domain
		switch i % 3 {
		case 0:
			specs = append(specs, monitor.Spec{Kind: monitor.KindCPNN, Q: q,
				Constraint: verify.Constraint{P: 0.3, Delta: 0.01}})
		case 1:
			specs = append(specs, monitor.Spec{Kind: monitor.KindPNN, Q: q})
		case 2:
			specs = append(specs, monitor.Spec{Kind: monitor.KindKNN, Q: q,
				Constraint: verify.Constraint{P: 0.4, Delta: 0.05},
				K:          2})
		}
	}
	compared := 0
	for ver, fv := range fviews {
		pv, ok := pviews[ver]
		if !ok {
			continue
		}
		for _, sp := range specs {
			want, _, err := freshEval(pv, sp)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := freshEval(fv, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d version %d: %s q=%g diverges:\nprimary  %s\nfollower %s",
					seed, ver, sp.Kind, sp.Q, want, got)
			}
		}
		compared++
	}
	if compared < 5 {
		t.Fatalf("only %d versions compared — the oracle lost its feed", compared)
	}
	assertEqualState(t, p, pdir, fs, fdir)
}

func drainViews(sub *store.Sub) map[uint64]*store.View {
	views := map[uint64]*store.View{}
	for {
		select {
		case d := <-sub.C():
			if !d.Gap {
				views[d.View.Version] = d.View
			}
		default:
			return views
		}
	}
}
