package sim

import (
	"strings"
	"testing"

	"repro/internal/asm"
)

// goldenSchedule is the byte-exact trace of the program below, one line
// per cycle from cycle 1. Cycle 15 retires the halt and returns before its
// line is rendered, so the 15-cycle run emits 14 lines.
var goldenSchedule = []string{
	"IF:LUI T1, 0          ID:-                  EX:-                  MEM:-                  WB:-                 ",
	"IF:LI T1, 40          ID:LUI T1, 0          EX:-                  MEM:-                  WB:-                 ",
	"IF:STORE T1, T0, 5    ID:LI T1, 40          EX:LUI T1, 0          MEM:-                  WB:-                 ",
	"IF:LOAD T2, T0, 5     ID:STORE T1, T0, 5    EX:LI T1, 40          MEM:LUI T1, 0          WB:-                 ",
	"IF:ADD T2, T2         ID:LOAD T2, T0, 5     EX:STORE T1, T0, 5    MEM:LI T1, 40          WB:LUI T1, 0         ",
	"IF:-                  ID:ADD T2, T2         EX:LOAD T2, T0, 5     MEM:STORE T1, T0, 5    WB:LI T1, 40          [stall]",
	"IF:BEQ T2, 0, 2       ID:ADD T2, T2         EX:-                  MEM:LOAD T2, T0, 5     WB:STORE T1, T0, 5   ",
	"IF:ADDI T3, 1         ID:BEQ T2, 0, 2       EX:ADD T2, T2         MEM:-                  WB:LOAD T2, T0, 5    ",
	"IF:JAL T4, 2          ID:ADDI T3, 1         EX:BEQ T2, 0, 2       MEM:ADD T2, T2         WB:-                 ",
	"IF:-                  ID:JAL T4, 2          EX:ADDI T3, 1         MEM:BEQ T2, 0, 2       WB:ADD T2, T2         [redirect]",
	"IF:JAL T8, 0          ID:-                  EX:JAL T4, 2          MEM:ADDI T3, 1         WB:BEQ T2, 0, 2      ",
	"IF:-                  ID:JAL T8, 0          EX:-                  MEM:JAL T4, 2          WB:ADDI T3, 1        ",
	"IF:-                  ID:-                  EX:JAL T8, 0          MEM:-                  WB:JAL T4, 2         ",
	"IF:-                  ID:-                  EX:-                  MEM:JAL T8, 0          WB:-                 ",
}

// TestGoldenPipelineSchedule pins the exact cycle-by-cycle behaviour of
// the §IV-B pipeline on a program exercising both stall sources: the
// accounting, every byte of the trace, and the TIM reads of both cores. If
// the microarchitecture changes, this fails loudly with the full schedule.
func TestGoldenPipelineSchedule(t *testing.T) {
	p, err := asm.Assemble(`
		LDI T1, 40       ; LUI + LI (2 words)
		STORE T1, T0, 5
		LOAD T2, T0, 5   ; load...
		ADD T2, T2       ; ...use → 1 stall
		BEQ T2, 0, skip  ; LST(80)... 80 = 10T01: LST=1 → not taken
		ADDI T3, 1
	skip:	JAL T4, end      ; taken → 1 squash
		ADDI T3, 1       ; skipped
	end:	HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(Config{})
	var trace []string
	pl.Trace = func(cycle uint64, line string) {
		if want := uint64(len(trace) + 1); cycle != want {
			t.Errorf("trace line %d reported for cycle %d", want, cycle)
		}
		trace = append(trace, line)
	}
	if err := pl.S.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Expected accounting: 9 retired (8 real + halt), 1 load-use stall,
	// 1 squash, fill 4 → cycles = 9 + 1 + 1 + 4 = 15.
	if res.Retired != 9 {
		t.Errorf("retired = %d, want 9", res.Retired)
	}
	if res.StallsLoad != 1 {
		t.Errorf("load stalls = %d, want 1", res.StallsLoad)
	}
	if res.StallsBranch != 1 {
		t.Errorf("squashes = %d, want 1", res.StallsBranch)
	}
	if res.Cycles != 15 {
		t.Errorf("cycles = %d, want 15\nschedule:\n%s",
			res.Cycles, strings.Join(trace, "\n"))
	}
	if res.NotTaken != 1 || res.Taken != 0 {
		t.Errorf("branch outcome %d/%d, want 0 taken / 1 not", res.Taken, res.NotTaken)
	}
	if got := pl.S.Reg(2).Int(); got != 80 {
		t.Errorf("T2 = %d, want 80", got)
	}
	if got := pl.S.Reg(3).Int(); got != 1 {
		t.Errorf("T3 = %d, want 1 (fall-through executed, post-JAL skipped)", got)
	}

	// The trace shows the stall (ID holds while EX bubbles) on cycle 6 and
	// the redirect on cycle 10, and every column on every line is pinned.
	if len(trace) != len(goldenSchedule) {
		t.Errorf("trace has %d lines, want %d", len(trace), len(goldenSchedule))
	}
	for i := 0; i < min(len(trace), len(goldenSchedule)); i++ {
		if trace[i] != goldenSchedule[i] {
			t.Errorf("cycle %d trace:\n got %q\nwant %q", i+1, trace[i], goldenSchedule[i])
		}
	}

	// Every fetch is one TIM read, whether the decoded stream or TIM
	// served it. Both cores fetch each retired instruction exactly once:
	// the pipeline's ID redirects or stops fetch before IF runs in the
	// same cycle, so nothing is fetched down a wrong path.
	f := NewFunctional(Config{})
	if err := f.S.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		core string
		s    *State
	}{{"pipeline", pl.S}, {"functional", f.S}} {
		if r, w := c.s.TIM.Accesses(); r != 9 || w != 0 {
			t.Errorf("%s TIM accesses = %d/%d, want 9/0", c.core, r, w)
		}
	}
}
