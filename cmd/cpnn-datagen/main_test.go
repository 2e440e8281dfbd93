package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDatagenFlagsDocumented: every flag `cpnn-datagen -h` registers appears
// in README as `-name` (or `-name VALUE`).
func TestDatagenFlagsDocumented(t *testing.T) {
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
	if len(flags) < 9 {
		t.Fatalf("parsed %d flags out of the usage text:\n%s", len(flags), usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range flags {
		if !regexp.MustCompile("`-" + m[1] + "[` ]").Match(readme) {
			t.Errorf("cpnn-datagen registers -%s, which README never mentions as `-%s`", m[1], m[1])
		}
	}
}
