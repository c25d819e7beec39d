package bench

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/xlate"
)

// timedAndPipelined holds one program's RunTimed and Pipeline.Run
// outcomes, each on a State of its own.
type timedAndPipelined struct {
	f          *sim.Functional
	pl         *sim.Pipeline
	fres, pres sim.Result
	ferr, perr error
}

// TestRunTimedMatchesPipelinePerWorkload is the per-job check RunCtx no
// longer makes: for every workload under each translator option set, the
// timed functional run that RunCtx reports from and the cycle-accurate
// pipeline halt with the same Result, TRF, TDM and TIM/TDM access counts,
// the pipeline's a0 is the RV32 checksum, and RunCtx's ART-9 metrics are
// the pipeline's. The step budget counts cycles on both: at exactly the
// program's cycle count both halt, and one cycle fewer both fail with
// ErrNoHalt.
func TestRunTimedMatchesPipelinePerWorkload(t *testing.T) {
	optionSets := []xlate.Options{{}, {NoPeephole: true}, {NoInlineMul: true}}
	for _, w := range append(slices.Clone(Workloads), ExtendedWorkloads...) {
		rvProg, err := rv32.Assemble(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		data := xlate.DataImage(rvProg)
		for _, opts := range optionSets {
			name := fmt.Sprintf("%s %+v", w.Name, opts)
			out, err := xlate.Translate(rvProg, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := asm.Assemble(out.Asm)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// both runs the program on RunTimed and on Pipeline.Run with
			// the step budget (0: the default).
			both := func(budget int) timedAndPipelined {
				cfg := sim.Config{MaxSteps: budget}
				r := timedAndPipelined{f: sim.NewFunctional(cfg), pl: sim.NewPipeline(cfg)}
				for _, s := range []*sim.State{r.f.S, r.pl.S} {
					if err := s.Load(p); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := s.TDM.SetAll(data); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				r.fres, r.ferr = r.f.RunTimed()
				r.pres, r.perr = r.pl.Run()
				return r
			}

			r := both(0)
			if r.ferr != nil || r.perr != nil {
				t.Fatalf("%s: RunTimed: %v, Pipeline.Run: %v", name, r.ferr, r.perr)
			}
			if r.fres != r.pres {
				t.Errorf("%s: RunTimed\n%+v\nPipeline.Run\n%+v", name, r.fres, r.pres)
			}
			if r.f.S.TRF != r.pl.S.TRF {
				t.Errorf("%s: TRF: RunTimed %v, Pipeline.Run %v", name, r.f.S.TRF, r.pl.S.TRF)
			}
			if !slices.Equal(r.f.S.TDM.Snapshot(), r.pl.S.TDM.Snapshot()) {
				t.Errorf("%s: TDM differs", name)
			}
			if a, b := accessCounts(r.f.S), accessCounts(r.pl.S); a != b {
				t.Errorf("%s: TIM/TDM reads and writes: RunTimed %v, Pipeline.Run %v", name, a, b)
			}

			o, err := Run(w, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if chk, err := out.ReadBack(r.pl.S, 10); err != nil || chk != o.Checksum {
				t.Errorf("%s: pipelined checksum %d (%v), rv32 %d", name, chk, err, o.Checksum)
			}
			pres := r.pres
			got := [5]uint64{o.ART9Cycles, o.ARTRetired, o.ARTStallsLoad, o.ARTStallsBranch, o.ARTLoads + o.ARTStores}
			want := [5]uint64{pres.Cycles, pres.Retired, pres.StallsLoad, pres.StallsBranch, pres.Loads + pres.Stores}
			if got != want {
				t.Errorf("%s: RunCtx cycles, retired, load stalls, squashes, memory ops %v; pipeline %v", name, got, want)
			}

			cycles := int(pres.Cycles)
			if at := both(cycles); at.ferr != nil || at.perr != nil || at.fres != at.pres {
				t.Errorf("%s at MaxSteps %d: RunTimed %v, Pipeline.Run %v; Results equal %v",
					name, cycles, at.ferr, at.perr, at.fres == at.pres)
			}
			short := both(cycles - 1)
			for core, err := range map[string]error{"RunTimed": short.ferr, "Pipeline.Run": short.perr} {
				var nh sim.ErrNoHalt
				if !errors.As(err, &nh) || nh.Steps != cycles-1 {
					t.Errorf("%s at MaxSteps %d: %s error %v, want ErrNoHalt{%d}", name, cycles-1, core, err, cycles-1)
				}
			}
		}
	}
}

// accessCounts returns the TIM and TDM read and write counts of s.
func accessCounts(s *sim.State) [4]uint64 {
	tr, tw := s.TIM.Accesses()
	dr, dw := s.TDM.Accesses()
	return [4]uint64{tr, tw, dr, dw}
}
