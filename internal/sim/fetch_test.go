package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// TestFetchPastImage jumps to the first address past the loaded image,
// where the fetch falls back from the decoded stream to reading and
// decoding TIM. The zero word there decodes as JALR T4, T4, 0, which
// returns through T4 to the HALT. Both cores must end in the same state,
// and each fetch — inside the image or past it — counts one TIM read.
func TestFetchPastImage(t *testing.T) {
	p, err := asm.Assemble(`
		LDI T1, 7
		LDA T4, done     ; T4 = address of the HALT
		JAL T5, past     ; jump to the first word past the image
	done:	HALT
	past:
	`)
	if err != nil {
		t.Fatal(err)
	}
	done, past := p.Symbols["done"], p.Symbols["past"]
	if past != len(p.Words) {
		t.Fatalf("past = %d, want the image length %d", past, len(p.Words))
	}
	if in, err := isa.DecodePacked(ternary.Packed{}); err != nil || in.String() != "JALR T4, T4, 0" {
		t.Fatalf("zero word decodes as %v (%v), want JALR T4, T4, 0", in, err)
	}

	f := NewFunctional(Config{})
	pl := NewPipeline(Config{})
	for _, s := range []*State{f.S, pl.S} {
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	fres, err := f.Run()
	if err != nil {
		t.Fatalf("functional: %v", err)
	}
	pres, err := pl.Run()
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}

	if f.S.TRF != pl.S.TRF || f.S.PC != pl.S.PC {
		t.Errorf("cores disagree: functional PC %v TRF %v, pipeline PC %v TRF %v", f.S.PC, f.S.TRF, pl.S.PC, pl.S.TRF)
	}
	for r, want := range map[isa.Reg]int{1: 7, 4: past + 1, 5: done} {
		if got := f.S.Reg(r).Int(); got != want {
			t.Errorf("T%d = %d, want %d", r, got, want)
		}
	}
	for _, c := range []struct {
		core string
		res  Result
		s    *State
	}{{"functional", fres, f.S}, {"pipeline", pres, pl.S}} {
		if c.res.HaltPC != done || c.res.Retired != 7 || c.res.Jumps != 2 || c.res.ByOp[isa.JALR] != 1 {
			t.Errorf("%s: halt PC %d, retired %d, jumps %d, JALR %d; want %d, 7, 2, 1",
				c.core, c.res.HaltPC, c.res.Retired, c.res.Jumps, c.res.ByOp[isa.JALR], done)
		}
		if r, w := c.s.TIM.Accesses(); r != 7 || w != 0 {
			t.Errorf("%s TIM accesses = %d/%d, want 7/0", c.core, r, w)
		}
	}
}

// TestFetchFaultText pins each core's fault text on both fetch faults: an
// illegal word planted in TIM without Load, and a jump past the end of a
// 256-word TIM, to index 300 and to index 3^9−300, the word −300. The
// message prints the balanced PC, and the core leaves State.PC there. The
// illegal word's read counts; the out-of-range read does not. RunTimed
// runs the functional core's loop, so it faults with the functional texts.
func TestFetchFaultText(t *testing.T) {
	illegal := ternary.Word{}.SetField(7, 8, -4).SetField(4, 6, 13) // bad R minor
	plant := func(s *State) error { return s.TIM.LoadImage([]ternary.Word{illegal}) }
	loadJump := func(to int) func(*State) error {
		p, err := asm.Assemble(fmt.Sprintf("LDI T1, %d\nJALR T0, T1, 0\n", to))
		if err != nil {
			t.Fatal(err)
		}
		return func(s *State) error { return s.Load(p) }
	}
	far, below := loadJump(300), loadJump(-300)
	for _, c := range []struct {
		name  string
		core  core
		cfg   Config
		fill  func(*State) error
		want  string
		reads uint64
		pc    int
	}{
		{"illegal", coreFunctional, Config{}, plant, "sim: at PC=0: isa: illegal R-type minor 13 in TT1110000", 1, 0},
		{"illegal", coreTimed, Config{}, plant, "sim: at PC=0: isa: illegal R-type minor 13 in TT1110000", 1, 0},
		{"illegal", corePipeline, Config{}, plant, "sim: IF at PC=0: isa: illegal R-type minor 13 in TT1110000", 1, 0},
		{"past TIM", coreFunctional, Config{TIMWords: 256}, far, "sim: fetch at PC=300: tmem: TIM read at 300 out of range [0,256)", 3, 300},
		{"past TIM", coreTimed, Config{TIMWords: 256}, far, "sim: fetch at PC=300: tmem: TIM read at 300 out of range [0,256)", 3, 300},
		{"past TIM", corePipeline, Config{TIMWords: 256}, far, "sim: IF at PC=300: tmem: TIM read at 300 out of range [0,256)", 3, 300},
		{"below zero", coreFunctional, Config{TIMWords: 256}, below, "sim: fetch at PC=-300: tmem: TIM read at 19383 out of range [0,256)", 3, -300},
		{"below zero", coreTimed, Config{TIMWords: 256}, below, "sim: fetch at PC=-300: tmem: TIM read at 19383 out of range [0,256)", 3, -300},
		{"below zero", corePipeline, Config{TIMWords: 256}, below, "sim: IF at PC=-300: tmem: TIM read at 19383 out of range [0,256)", 3, -300},
	} {
		s, run := newCore(c.core, c.cfg)
		if err := c.fill(s); err != nil {
			t.Fatal(err)
		}
		if _, err := run(); err == nil || err.Error() != c.want {
			t.Errorf("%v %s: error %v, want %q", c.core, c.name, err, c.want)
		}
		if r, _ := s.TIM.Accesses(); r != c.reads {
			t.Errorf("%v %s: %d TIM reads, want %d", c.core, c.name, r, c.reads)
		}
		if got := s.PC.Int(); got != c.pc {
			t.Errorf("%v %s: PC = %d, want %d", c.core, c.name, got, c.pc)
		}
	}
}

// FuzzPipelineVsFunctional is the differential oracle for both cores, the
// functional core's timed run, and both fetch paths. Each input is a seed
// and a length for buildRandomProgram; the program runs on each core (Run,
// RunTimed, Pipeline.Run) twice: after Load, which fetches from the decoded
// stream, and over a State whose TIM and TDM were filled directly, which
// has no stream and decodes every fetch.
//
//   - All six runs end with the same TRF and TDM.
//   - On each core the two fetch paths give identical Results (ByOp
//     included) and identical TIM and TDM access counts.
//   - RunTimed gives the pipeline's Result and access counts: the stall
//     rule it derives from the retired stream and the one the pipeline's
//     hazard unit applies check each other.
//   - Every core fetches exactly the retired path, so TIM reads equal
//     Retired.
//   - The pipeline's cycles are its fill, one per retired instruction and
//     one per stall or squashed slot.
//
// The seed corpus is in testdata/fuzz/FuzzPipelineVsFunctional.
func FuzzPipelineVsFunctional(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		src := buildRandomProgram(rand.New(rand.NewSource(seed)), int(size)+1)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v\n%s", err, src)
		}
		load := func(s *State) error { return s.Load(p) }
		raw := func(s *State) error {
			if err := s.TIM.LoadImage(p.Words); err != nil {
				return err
			}
			return s.TDM.SetAll(p.Data)
		}
		type run struct {
			name string
			res  Result
			s    *State
		}
		// exec runs the program on one core over a State filled by fill.
		exec := func(name string, c core, fill func(*State) error) run {
			s, runCore := newCore(c, Config{})
			var res Result
			err := fill(s)
			if err == nil {
				res, err = runCore()
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, src)
			}
			return run{name, res, s}
		}
		fn := exec("functional after Load", coreFunctional, load)
		tm := exec("timed after Load", coreTimed, load)
		pl := exec("pipeline after Load", corePipeline, load)
		fnRaw := exec("functional without decoded stream", coreFunctional, raw)
		tmRaw := exec("timed without decoded stream", coreTimed, raw)
		plRaw := exec("pipeline without decoded stream", corePipeline, raw)

		tdm := fn.s.TDM.Snapshot()
		for _, r := range []run{fn, tm, pl, fnRaw, tmRaw, plRaw} {
			if r.s.TRF != fn.s.TRF {
				t.Fatalf("%s: TRF %v, %s: %v\n%s", r.name, r.s.TRF, fn.name, fn.s.TRF, src)
			}
			for a, w := range r.s.TDM.Snapshot() {
				if w != tdm[a] {
					t.Fatalf("%s: TDM[%d] = %v, %s: %v\n%s", r.name, a, w, fn.name, tdm[a], src)
				}
			}
			if reads, _ := r.s.TIM.Accesses(); reads != r.res.Retired {
				t.Fatalf("%s: %d TIM reads for %d retired\n%s", r.name, reads, r.res.Retired, src)
			}
		}
		for _, pair := range [][2]run{{fn, fnRaw}, {tm, tmRaw}, {pl, plRaw}, {pl, tm}} {
			a, b := pair[0], pair[1]
			if a.res != b.res {
				t.Fatalf("%s: %+v\n%s: %+v\n%s", a.name, a.res, b.name, b.res, src)
			}
			if ma, mb := accesses(a.s), accesses(b.s); ma != mb {
				t.Fatalf("TIM/TDM reads and writes: %s %v, %s %v\n%s", a.name, ma, b.name, mb, src)
			}
		}

		res := pl.res
		if want := res.Retired + res.StallsLoad + res.StallsBranch + 4; res.Cycles != want {
			t.Fatalf("pipeline cycles %d, want %d (retired=%d loads=%d branch=%d)\n%s",
				res.Cycles, want, res.Retired, res.StallsLoad, res.StallsBranch, src)
		}
	})
}

// core names one of the three runs of a program: the functional core's
// Run and RunTimed, and the pipelined core's Run.
type core int

const (
	coreFunctional core = iota
	coreTimed
	corePipeline
)

func (c core) String() string {
	return [...]string{"functional", "timed", "pipeline"}[c]
}

// newCore builds core c over a fresh State and returns that State and the
// run.
func newCore(c core, cfg Config) (*State, func() (Result, error)) {
	switch c {
	case corePipeline:
		pl := NewPipeline(cfg)
		return pl.S, pl.Run
	case coreTimed:
		f := NewFunctional(cfg)
		return f.S, f.RunTimed
	}
	f := NewFunctional(cfg)
	return f.S, f.Run
}

// accesses returns the TIM and TDM read and write counts of s.
func accesses(s *State) [4]uint64 {
	tr, tw := s.TIM.Accesses()
	dr, dw := s.TDM.Accesses()
	return [4]uint64{tr, tw, dr, dw}
}
