package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-execs the test binary as the CLI itself when the marker
// env var is set, so the golden tests drive the real main() — flag
// parsing, file I/O, exit paths — in a child process, exactly as a
// user would. Regenerate goldens with:
//
//	go run ./cmd/art9-sim cmd/art9-sim/testdata/sum.t9s > cmd/art9-sim/testdata/sum.stats.golden
//	go run ./cmd/art9-sim -trace cmd/art9-sim/testdata/sum.t9s > cmd/art9-sim/testdata/sum.trace.golden
func TestMain(m *testing.M) {
	if os.Getenv("ART9_SIM_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "ART9_SIM_CLI=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("art9-sim %v: %v\n%s", args, err, out)
	}
	return string(out)
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

// TestPipelineStats pins the cycle-accurate core's statistics for the
// sum-1..10 program: cycles, CPI, and squash counts are part of the
// paper-reproduction surface, so a drift here is a finding, not noise.
func TestPipelineStats(t *testing.T) {
	golden(t, "sum.stats.golden", runCLI(t, filepath.Join("testdata", "sum.t9s")))
}

// TestImageMode loads the art9-asm-encoded TIM image of the same
// program and must land on identical statistics — the image round-trip
// may not change the architecture.
func TestImageMode(t *testing.T) {
	golden(t, "sum.stats.golden", runCLI(t, "-image", filepath.Join("testdata", "sum.tim")))
}

// TestPipelineTrace pins every byte of the per-cycle trace, from the
// source and from its encoded image alike. The image carries no decoded
// instruction stream, so each fetch decodes TIM; the assembled program
// fetches from the stream. Both must render the same schedule.
func TestPipelineTrace(t *testing.T) {
	golden(t, "sum.trace.golden", runCLI(t, "-trace", filepath.Join("testdata", "sum.t9s")))
	golden(t, "sum.trace.golden", runCLI(t, "-trace", "-image", filepath.Join("testdata", "sum.tim")))
}

// TestCoresAgreeOnRegisters runs both cores with -regs and compares the
// final register files: the pipelined core must retire to the same
// architectural state as the functional reference.
func TestCoresAgreeOnRegisters(t *testing.T) {
	regsOf := func(out string) []string {
		var regs []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "T") {
				regs = append(regs, line)
			}
		}
		return regs
	}
	src := filepath.Join("testdata", "sum.t9s")
	pipe := regsOf(runCLI(t, "-regs", src))
	funcl := regsOf(runCLI(t, "-func", "-regs", src))
	if len(pipe) != 9 || len(funcl) != 9 {
		t.Fatalf("expected 9 register lines, got %d (pipeline) and %d (functional)", len(pipe), len(funcl))
	}
	for i := range pipe {
		if pipe[i] != funcl[i] {
			t.Errorf("register file diverges:\n  pipeline:   %s\n  functional: %s", pipe[i], funcl[i])
		}
	}
	if !strings.Contains(pipe[1], "= 55") && !strings.Contains(pipe[1], "    55") {
		t.Errorf("T1 should hold sum(1..10) = 55, got %q", pipe[1])
	}
}
