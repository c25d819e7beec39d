package sim

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// timedVsPipeline runs p on RunTimed and on Pipeline.Run, each over a
// fresh State with configuration cfg, and fails unless both halt with the
// same Result, TRF, TDM and TIM/TDM access counts. It returns the Result.
func timedVsPipeline(t *testing.T, name string, p *asm.Program, cfg Config) Result {
	t.Helper()
	f, pl := NewFunctional(cfg), NewPipeline(cfg)
	for _, s := range []*State{f.S, pl.S} {
		if err := s.Load(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	fres, ferr := f.RunTimed()
	pres, perr := pl.Run()
	if ferr != nil || perr != nil {
		t.Fatalf("%s: RunTimed: %v, Pipeline.Run: %v", name, ferr, perr)
	}
	if fres != pres {
		t.Fatalf("%s: RunTimed\n%+v\nPipeline.Run\n%+v", name, fres, pres)
	}
	if f.S.TRF != pl.S.TRF {
		t.Fatalf("%s: TRF: RunTimed %v, Pipeline.Run %v", name, f.S.TRF, pl.S.TRF)
	}
	if !slices.Equal(f.S.TDM.Snapshot(), pl.S.TDM.Snapshot()) {
		t.Fatalf("%s: TDM differs", name)
	}
	if a, b := accesses(f.S), accesses(pl.S); a != b {
		t.Fatalf("%s: TIM/TDM reads and writes: RunTimed %v, Pipeline.Run %v", name, a, b)
	}
	return fres
}

// checkBudgetBoundary pins Config.MaxSteps as a cycle budget on both runs:
// with exactly the program's cycles both halt with equal results, and one
// cycle fewer both fail with ErrNoHalt.
func checkBudgetBoundary(t *testing.T, name string, p *asm.Program, cycles uint64) {
	t.Helper()
	timedVsPipeline(t, name+" at its cycle count", p, Config{MaxSteps: int(cycles)})
	short := int(cycles) - 1
	for _, c := range []core{coreTimed, corePipeline} {
		s, run := newCore(c, Config{MaxSteps: short})
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		var nh ErrNoHalt
		if _, err := run(); !errors.As(err, &nh) || nh.Steps != short {
			t.Errorf("%s, %v at %d steps: error %v, want ErrNoHalt{%d}", name, c, short, err, short)
		}
	}
}

// TestRunTimedMatchesPipeline pins the stall rule RunTimed derives from the
// retired stream against the pipeline's hazard unit on hand-written edge
// cases, at and just below each one's budget boundary.
func TestRunTimedMatchesPipeline(t *testing.T) {
	for _, c := range []struct {
		name                string
		src                 string
		stalls, squashes    uint64
		retired, jumps, jal uint64
	}{
		{
			// The halt is an absolute JALR to itself whose base register
			// the instruction before it loads: the halt waits out a
			// load-use stall like any other reader.
			name: "load-use stall before a JALR halt",
			src: `
				LDA T4, done
				STORE T4, T0, 0
				LOAD T5, T0, 0
			done:	JALR T1, T5, 0
			`,
			stalls: 1, retired: 5,
		},
		{
			// A taken JAL squashes one slot; the halt's own transfer
			// does not, and is not counted as a jump.
			name: "halt's own transfer not counted",
			src: `
				JAL T1, next
			next:	HALT
			`,
			squashes: 1, retired: 2, jumps: 1, jal: 2,
		},
		{
			// The HALT's Ta field names the register just loaded, but
			// JAL reads no register, so nothing stalls.
			name: "halt naming a loaded register",
			src: `
				LOAD T8, T0, 0
				HALT
			`,
			retired: 2, jal: 1,
		},
		{
			// A store reads Ta as its value: a load-use stall.
			name: "store of a loaded value",
			src: `
				LOAD T2, T0, 1
				STORE T2, T0, 2
				LOAD T3, T0, 3
				ADDI T4, 1
				ADD T4, T3
				HALT
			`,
			stalls: 1, retired: 6, jal: 1,
		},
	} {
		p, err := asm.Assemble(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := timedVsPipeline(t, c.name, p, Config{})
		if res.StallsLoad != c.stalls || res.StallsBranch != c.squashes || res.Retired != c.retired ||
			res.Jumps != c.jumps || res.ByOp[isa.JAL] != c.jal {
			t.Errorf("%s: stalls %d, squashes %d, retired %d, jumps %d, JAL %d; want %d, %d, %d, %d, %d",
				c.name, res.StallsLoad, res.StallsBranch, res.Retired, res.Jumps, res.ByOp[isa.JAL],
				c.stalls, c.squashes, c.retired, c.jumps, c.jal)
		}
		if want := res.Retired + res.StallsLoad + res.StallsBranch + pipelineFill; res.Cycles != want {
			t.Errorf("%s: cycles %d, want %d", c.name, res.Cycles, want)
		}
		checkBudgetBoundary(t, c.name, p, res.Cycles)
	}
}
