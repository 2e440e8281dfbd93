package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

func writeDataset(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildServerFromFile(t *testing.T) {
	path := writeDataset(t, "1 2\n5 9\nhist 10 11 12 | 1 3\n")
	app, err := buildServer(serveOpts{shardOf: -1, dataPath: path, seed: 1}, server.Config{}, obsKit{})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.source != path {
		t.Errorf("source = %q, want %q", app.source, path)
	}
	if got := app.srv.Snapshot().Objects; got != 3 {
		t.Errorf("objects = %d, want 3", got)
	}
	rec := httptest.NewRecorder()
	app.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cpnn?q=1.5&p=0.3", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("cpnn status %d: %s", rec.Code, rec.Body)
	}
}

func TestBuildServerRejectsBadInput(t *testing.T) {
	if _, err := buildServer(serveOpts{shardOf: -1, seed: 1}, server.Config{}, obsKit{}); err == nil {
		t.Error("no source accepted")
	}
	if _, err := buildServer(serveOpts{shardOf: -1, dataPath: "/nonexistent/ds", seed: 1}, server.Config{}, obsKit{}); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := buildServer(serveOpts{shardOf: -1, dataPath: "x", gen: true, seed: 1}, server.Config{}, obsKit{}); err == nil {
		t.Error("-gen with -data accepted")
	}
	bad := writeDataset(t, "9 2\n")
	if _, err := buildServer(serveOpts{shardOf: -1, dataPath: bad, seed: 1}, server.Config{}, obsKit{}); err == nil {
		t.Error("inverted interval accepted")
	}
	good := writeDataset(t, "1 2\n")
	if _, err := buildServer(serveOpts{shardOf: -1, dataPath: good, seed: 1}, server.Config{Quantum: -2}, obsKit{}); err == nil {
		t.Error("negative quantum accepted")
	}
	if _, err := buildServer(serveOpts{shardOf: -1, follow: "127.0.0.1:1"}, server.Config{}, obsKit{}); err == nil {
		t.Error("-follow without -data-dir accepted")
	}
	if _, err := buildServer(serveOpts{shardOf: -1, dataPath: good, replicateAddr: "127.0.0.1:0"}, server.Config{}, obsKit{}); err == nil {
		t.Error("-replicate-addr without -data-dir accepted")
	}
	if _, err := buildServer(serveOpts{shardOf: -1, dataDir: t.TempDir(), follow: "127.0.0.1:1", gen: true}, server.Config{}, obsKit{}); err == nil {
		t.Error("-follow with -gen accepted")
	}
}

// TestBuildServerSeedsAndRecoversDataDir checks the durable boot matrix:
// empty dir + -data seeds the store; a populated dir wins over -data.
func TestBuildServerSeedsAndRecoversDataDir(t *testing.T) {
	path := writeDataset(t, "1 2\n5 9\n")
	dir := t.TempDir()

	app, err := buildServer(serveOpts{shardOf: -1, dataPath: path, seed: 1, dataDir: dir, noSync: true}, server.Config{}, obsKit{})
	if err != nil {
		t.Fatal(err)
	}
	if app.srv.Snapshot().Objects != 2 || app.srv.Snapshot().Version != 1 {
		t.Fatalf("seeded snapshot: %+v", app.srv.Snapshot())
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT -data file: the store contents must win.
	other := writeDataset(t, "100 101\n200 201\n300 301\n")
	app, err = buildServer(serveOpts{shardOf: -1, dataPath: other, seed: 1, dataDir: dir, noSync: true}, server.Config{}, obsKit{})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.srv.Snapshot().Objects != 2 {
		t.Fatalf("store contents overridden: %d objects", app.srv.Snapshot().Objects)
	}
	if !strings.HasPrefix(app.source, "store:") {
		t.Fatalf("source = %q", app.source)
	}
}

// TestGracefulShutdown boots the real server loop, mutates through the HTTP
// API, cancels the context (the SIGTERM path), and expects: a clean exit, a
// checkpointed store, and full recovery on the next boot.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	dsPath := writeDataset(t, "1 2\n5 9\n")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data", dsPath, "-data-dir", dir, "-no-fsync"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	}

	// Mutate durably over HTTP.
	resp, err := http.Post("http://"+addr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":50,"hi":60}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("objects: %d", resp.StatusCode)
	}
	resp.Body.Close()

	hz, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if health.Status != "ok" || health.Objects != 3 {
		t.Fatalf("healthz: %+v", health)
	}

	// SIGTERM equivalent: cancel the run context.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after cancel")
	}

	// The drain checkpointed: reopening finds the mutation with no WAL left.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Objects1D != 3 {
		t.Fatalf("recovered %d objects, want 3", stats.Objects1D)
	}
	if stats.WALBytes != 0 {
		t.Fatalf("WAL holds %d bytes after graceful shutdown", stats.WALBytes)
	}
	if stats.Version != 2 {
		t.Fatalf("recovered version %d, want 2", stats.Version)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-gen", "-data", "x"}, nil); err == nil {
		t.Fatal("conflicting flags accepted")
	}
	if err := run(context.Background(), []string{"-not-a-flag"}, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestPrimaryReplicaEndToEnd boots a primary with -replicate-addr and a
// replica with -follow through the real run() loop, writes through the
// primary's HTTP API, and expects the replica to converge, serve reads,
// redirect writes, and shut both processes down cleanly.
func TestPrimaryReplicaEndToEnd(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	dsPath := writeDataset(t, "1 2\n5 9\n")

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	pready := make(chan string, 1)
	pdone := make(chan error, 1)
	go func() {
		pdone <- run(pctx, []string{
			"-addr", "127.0.0.1:0", "-data", dsPath, "-data-dir", pdir, "-no-fsync",
			"-replicate-addr", "127.0.0.1:0",
		}, pready)
	}()
	var paddr string
	select {
	case paddr = <-pready:
	case err := <-pdone:
		t.Fatalf("primary exited early: %v", err)
	}

	// The replication port was dynamic; read it off the primary's /healthz.
	var replAddr string
	deadline := time.Now().Add(10 * time.Second)
	for replAddr == "" {
		if time.Now().After(deadline) {
			t.Fatal("primary never reported its replication address")
		}
		resp, err := http.Get("http://" + paddr + "/healthz")
		if err == nil {
			var hz struct {
				ReplicationServer struct {
					Addr string `json:"addr"`
				} `json:"replication_server"`
			}
			json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			replAddr = hz.ReplicationServer.Addr
		}
	}

	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	rready := make(chan string, 1)
	rdone := make(chan error, 1)
	go func() {
		rdone <- run(rctx, []string{
			"-addr", "127.0.0.1:0", "-data-dir", rdir, "-no-fsync",
			"-follow", replAddr,
		}, rready)
	}()
	var raddr string
	select {
	case raddr = <-rready:
	case err := <-rdone:
		t.Fatalf("replica exited early: %v", err)
	}

	// Wait for the replica to report healthy (caught up).
	waitHealthy := func(addr string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became healthy", addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitHealthy(raddr)

	// Write through the primary; the replica must serve it.
	resp, err := http.Post("http://"+paddr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":50,"hi":60}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary write: %d", resp.StatusCode)
	}
	resp.Body.Close()
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + raddr + "/v1/cpnn?q=55&p=0.3&delta=0.01")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Version uint64 `json:"version"`
			Answers []struct {
				ID int     `json:"id"`
				L  float64 `json:"l"` // lower qualification-probability bound
			} `json:"answers"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		// The inserted [50,60] contains q=55 and gets stable ID 3 (after the
		// two seed objects); it must qualify with near-certain probability.
		if resp.StatusCode == http.StatusOK && len(body.Answers) == 1 &&
			body.Answers[0].ID == 3 && body.Answers[0].L > 0.9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served the replicated object (status %d, %+v)", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Writes on the replica bounce: no -advertise-http was set, so 403.
	resp, err = http.Post("http://"+raddr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":1,"hi":2}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica write: %d, want 403", resp.StatusCode)
	}

	// Clean shutdowns, replica first.
	rcancel()
	select {
	case err := <-rdone:
		if err != nil {
			t.Fatalf("replica run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("replica did not exit")
	}
	pcancel()
	select {
	case err := <-pdone:
		if err != nil {
			t.Fatalf("primary run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("primary did not exit")
	}

	// Both dirs recover independently with the same contents.
	for _, dir := range []string{pdir, rdir} {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if n := st.Stats().Objects1D; n != 3 {
			t.Fatalf("%s recovered %d objects, want 3", dir, n)
		}
		st.Close()
	}
}

// TestShardedServeEndToEnd exercises all three sharding roles through the
// real run() loop: a single-process -shards boot creates the cluster from a
// seed file, serves and mutates it, and shuts down cleanly; then the same
// directory comes back as two -shard-of member processes behind a -router
// front, which must serve the mutated data and keep member writes locked.
func TestShardedServeEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cluster")
	dsPath := writeDataset(t, "1 2\n5 9\n100 110\n200 210\n")

	// Phase 1: single-process sharded serving, cluster created on boot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data", dsPath,
			"-data-dir", dir, "-no-fsync", "-shards", "2"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("sharded run exited early: %v", err)
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("http://" + addr + "/v1/cpnn?q=1.5&p=0.3"); code != http.StatusOK {
		t.Fatalf("sharded cpnn: %d: %s", code, body)
	}
	if code, body := get("http://" + addr + "/healthz"); code != http.StatusOK || !strings.Contains(body, `"shards":2`) {
		t.Fatalf("sharded healthz: %d: %s", code, body)
	}
	resp, err := http.Post("http://"+addr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":50,"hi":60}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded write: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sharded run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("sharded run did not exit")
	}

	// Phase 2: the same cluster as member processes plus a router.
	type proc struct {
		cancel context.CancelFunc
		done   chan error
		addr   string
	}
	start := func(args ...string) *proc {
		t.Helper()
		pctx, pcancel := context.WithCancel(context.Background())
		p := &proc{cancel: pcancel, done: make(chan error, 1)}
		pready := make(chan string, 1)
		go func() { p.done <- run(pctx, args, pready) }()
		select {
		case p.addr = <-pready:
		case err := <-p.done:
			t.Fatalf("%v exited early: %v", args, err)
		case <-time.After(15 * time.Second):
			t.Fatalf("%v never became ready", args)
		}
		return p
	}
	stop := func(p *proc) {
		t.Helper()
		p.cancel()
		select {
		case err := <-p.done:
			if err != nil {
				t.Fatalf("process returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("process did not exit")
		}
	}

	m0 := start("-addr", "127.0.0.1:0", "-data-dir", dir, "-no-fsync", "-shard-of", "0")
	m1 := start("-addr", "127.0.0.1:0", "-data-dir", dir, "-no-fsync", "-shard-of", "1")
	rt := start("-addr", "127.0.0.1:0", "-data-dir", dir, "-no-fsync",
		"-router", "http://"+m0.addr+",http://"+m1.addr)

	// The phase-1 write must be visible through the router: [50,60] owns q=55.
	if code, body := get("http://" + rt.addr + "/v1/pnn?q=55"); code != http.StatusOK || !strings.Contains(body, `"id":5`) {
		t.Fatalf("router pnn: %d: %s", code, body)
	}
	// Members refuse direct writes: the router owns placement and IDs.
	resp, err = http.Post("http://"+m0.addr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":1,"hi":2}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("member write: %d, want 403", resp.StatusCode)
	}
	// Writes through the router land on the owning member.
	resp, err = http.Post("http://"+rt.addr+"/v1/objects", "application/json",
		strings.NewReader(`{"objects":[{"uniform":{"lo":205,"hi":215}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router write: %d", resp.StatusCode)
	}
	if code, body := get("http://" + rt.addr + "/v1/dataset"); code != http.StatusOK || !strings.Contains(body, `"objects":6`) {
		t.Fatalf("router dataset: %d: %s", code, body)
	}

	stop(rt)
	stop(m1)
	stop(m0)
}

// TestServeFlagsDocumented is the flag half of the docs self-check: every
// flag `cpnn-serve -h` prints appears in README as `-name`, so a flag cannot
// be added (or survive a rename) undocumented. The usage text is the real
// FlagSet's — run() builds it — captured off stderr.
func TestServeFlagsDocumented(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = pw
	runErr := run(context.Background(), []string{"-h"}, nil)
	os.Stderr = stderr
	pw.Close()
	usage, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", runErr)
	}
	flags := regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`).FindAllStringSubmatch(string(usage), -1)
	if len(flags) < 20 {
		t.Fatalf("parsed %d flags out of the usage text:\n%s", len(flags), usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flags {
		// `-name` or `-name VALUE`, in code formatting.
		if !regexp.MustCompile("`-" + m[1] + "[` ]").Match(readme) {
			t.Errorf("cpnn-serve registers -%s, which README never mentions as `-%s`", m[1], m[1])
		}
	}
}
