package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain re-execs the test binary as the CLI itself when the marker
// env var is set, so the golden tests drive the real main() in a child
// process. Regenerate goldens with:
//
//	go run ./cmd/art9-xlate cmd/art9-xlate/testdata/dot.s > cmd/art9-xlate/testdata/dot.t9s.golden
//	go run ./cmd/art9-xlate -no-peephole cmd/art9-xlate/testdata/dot.s > cmd/art9-xlate/testdata/dot.no-peephole.golden
//	go run ./cmd/art9-xlate -stats cmd/art9-xlate/testdata/dot.s 2> cmd/art9-xlate/testdata/dot.stats.golden >/dev/null
func TestMain(m *testing.M) {
	if os.Getenv("ART9_XLATE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs art9-xlate with args and returns its standard output and
// standard error.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "ART9_XLATE_CLI=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("art9-xlate %v: %v\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, string(want))
	}
}

var src = filepath.Join("testdata", "dot.s")

// TestTranslationGolden pins the default translation byte for byte.
func TestTranslationGolden(t *testing.T) {
	out, _ := runCLI(t, src)
	golden(t, "dot.t9s.golden", out)
}

// TestNoPeepholeGolden pins the translation with redundancy checking off.
func TestNoPeepholeGolden(t *testing.T) {
	out, _ := runCLI(t, "-no-peephole", src)
	golden(t, "dot.no-peephole.golden", out)
}

// TestStatsGolden pins the -stats report on standard error; standard
// output still carries the default translation.
func TestStatsGolden(t *testing.T) {
	out, stats := runCLI(t, "-stats", src)
	golden(t, "dot.stats.golden", stats)
	golden(t, "dot.t9s.golden", out)
}
