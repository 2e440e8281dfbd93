package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pdf"
	"repro/internal/store"
)

func populated(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply([]store.Op{
		store.InsertObject(pdf.MustUniform(0, 10)),
		store.InsertObject(pdf.MustUniform(5, 15)),
		store.InsertObject(pdf.MustHistogram([]float64{20, 21, 22}, []float64{1, 3})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInspect(t *testing.T) {
	dir := populated(t)
	var sb strings.Builder
	if err := run([]string{"-dir", dir, "inspect"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"version:      1", "objects (1d): 3", "checkpoint:   none", "wal tail:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
	// Footprint lines: pre-checkpoint everything is overlay, nothing on disk.
	for _, want := range []string{"base pages:   0", "cache budget:", "overlay:      3 slots resident, 0 served from base"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing footprint %q:\n%s", want, out)
		}
	}

	// After compaction the picture inverts: payloads live behind the page
	// cache, the overlay is empty.
	sb.Reset()
	if err := run([]string{"-dir", dir, "-no-fsync", "compact"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, "overlay:      0 slots resident, 3 served from base") {
		t.Fatalf("post-compact inspect footprint:\n%s", out)
	}
	if strings.Contains(out, "base pages:   0") {
		t.Fatalf("post-compact inspect reports no base pages:\n%s", out)
	}
}

func TestCompactThenVerify(t *testing.T) {
	dir := populated(t)
	var sb strings.Builder
	if err := run([]string{"-dir", dir, "-no-fsync", "compact"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wal tail:     0 bytes") {
		t.Fatalf("compact did not reset WAL:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "checkpoint age:") {
		t.Fatalf("compact output lacks the checkpoint age:\n%s", sb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.db")); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := run([]string{"-dir", dir, "verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ok: 3 objects") {
		t.Fatalf("verify output:\n%s", sb.String())
	}
}

func TestVerifyDetectsTornTail(t *testing.T) {
	dir := populated(t)
	// Tear the WAL tail: verify must still succeed (recovery drops it) and
	// inspect must report the tear.
	path := filepath.Join(dir, "wal.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir, "inspect"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "torn tail detected") {
		t.Fatalf("inspect did not report the tear:\n%s", sb.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if err := run([]string{"-dir", t.TempDir(), "frobnicate"}, &sb); err == nil {
		t.Fatal("unknown command accepted")
	}
}

// TestSplitThenVerifyCluster splits a store into a cluster and checks that
// inspect/verify fan out over every member, the object counts add up, and
// the source directory is untouched.
func TestSplitThenVerifyCluster(t *testing.T) {
	dir := populated(t)
	cluster := filepath.Join(t.TempDir(), "cluster")

	var sb strings.Builder
	if err := run([]string{"-dir", dir, "-into", cluster, "-shards", "2", "-no-fsync", "split"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "split: 2 shards under") {
		t.Fatalf("split output:\n%s", sb.String())
	}

	sb.Reset()
	if err := run([]string{"-dir", cluster, "verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"--- shard 0/2", "--- shard 1/2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cluster verify missing %q:\n%s", want, out)
		}
	}

	// The members hold the three objects between them.
	sb.Reset()
	if err := run([]string{"-dir", cluster, "inspect"}, &sb); err != nil {
		t.Fatal(err)
	}
	total := strings.Count(sb.String(), "objects (1d): 1") + 2*strings.Count(sb.String(), "objects (1d): 2") +
		3*strings.Count(sb.String(), "objects (1d): 3")
	if total != 3 {
		t.Fatalf("cluster inspect object counts do not sum to 3:\n%s", sb.String())
	}

	// The source store still opens and verifies on its own.
	sb.Reset()
	if err := run([]string{"-dir", dir, "verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ok: 3 objects") {
		t.Fatalf("source verify after split:\n%s", sb.String())
	}

	// Cluster-level compact is refused with a pointer at the member dirs.
	if err := run([]string{"-dir", cluster, "compact"}, &sb); err == nil {
		t.Fatal("cluster compact accepted")
	}

	// Split flags without the split command are refused.
	if err := run([]string{"-dir", dir, "-into", cluster, "inspect"}, &sb); err == nil {
		t.Fatal("-into without split accepted")
	}
	if err := run([]string{"-dir", dir, "split"}, &sb); err == nil {
		t.Fatal("split without -into/-shards accepted")
	}
}

// TestStoreFlagsDocumented: every flag `cpnn-store -h` registers appears in
// README as `-name` (or `-name VALUE`), and every subcommand the binary
// accepts — the list its unknown-command error names — as `name`.
func TestStoreFlagsDocumented(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = pw
	runErr := run([]string{"-h"}, io.Discard)
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
	if len(flags) < 6 {
		t.Fatalf("parsed %d flags out of the usage text:\n%s", len(flags), usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flags {
		if !regexp.MustCompile("`-" + m[1] + "[` ]").Match(readme) {
			t.Errorf("cpnn-store registers -%s, which README never mentions as `-%s`", m[1], m[1])
		}
	}

	runErr = run([]string{"-dir", t.TempDir(), "frobnicate"}, io.Discard)
	if runErr == nil {
		t.Fatal("unknown command accepted")
	}
	list := regexp.MustCompile(`\(([a-z, ]+)\)`).FindStringSubmatch(runErr.Error())
	if list == nil {
		t.Fatalf("the unknown-command error names no commands: %v", runErr)
	}
	cmds := strings.Split(list[1], ", ")
	if len(cmds) != 4 {
		t.Fatalf("parsed %d subcommands out of %q, want 4", len(cmds), list[1])
	}
	for _, c := range cmds {
		if !strings.Contains(string(readme), "`"+c+"`") {
			t.Errorf("cpnn-store accepts %s, which README never mentions as `%s`", c, c)
		}
	}
}
