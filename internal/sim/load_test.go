package sim

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestLoadResetsStateBetweenPrograms reuses one State for a long program
// and then a shorter one: the second Load must zero every word beyond the
// new image and clear the access counters, or the power model sees the
// first program's residue.
func TestLoadResetsStateBetweenPrograms(t *testing.T) {
	long, err := asm.Assemble(`
		LDI T1, 111
		LDI T2, 222
		LDI T3, 20
		STORE T1, T3, 0
		STORE T2, T3, 1
		ADD T1, T2
		ADD T1, T2
		ADD T1, T2
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	short, err := asm.Assemble(`
		LDI T1, 5
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFunctional(Config{})
	if err := f.S.Load(long); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	if err := f.S.Load(short); err != nil {
		t.Fatal(err)
	}
	// No stale instruction words: everything past the short image is 0.
	tim := f.S.TIM.Snapshot()
	for a := len(short.Words); a < len(long.Words); a++ {
		if !tim[a].IsZero() {
			t.Errorf("TIM[%d] = %v, want zero after shorter reload", a, tim[a])
		}
	}
	// No stale data words from the first program's stores.
	for _, a := range []int{20, 21} {
		w, err := f.S.TDM.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !w.IsZero() {
			t.Errorf("TDM[%d] = %v, want zero after reload", a, w)
		}
	}
	// Access counters restart from the fresh Load (the Read above is the
	// only access so far: TDM reads=1, TIM reads=0).
	if r, w := f.S.TIM.Accesses(); r != 0 || w != 0 {
		t.Errorf("TIM accesses after reload = %d/%d, want 0/0", r, w)
	}
	if r, w := f.S.TDM.Accesses(); r != 2 || w != 0 {
		t.Errorf("TDM accesses after reload = %d/%d, want 2/0 (the checks above)", r, w)
	}

	// The short program still runs correctly on the reused state.
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltPC != len(short.Words)-1 {
		t.Errorf("halt PC = %d, want %d", res.HaltPC, len(short.Words)-1)
	}
	if got := f.S.Reg(1).Int(); got != 5 {
		t.Errorf("T1 = %d, want 5", got)
	}
}

// TestLoadDropsDecodedStream reloads a State that last ran an assembled
// program with a bare TIM image, which carries no decoded stream. Every
// fetch must then decode the new TIM words, not replay the old stream.
func TestLoadDropsDecodedStream(t *testing.T) {
	first, err := asm.Assemble(`
		LDI T1, 111
		ADDI T1, 1
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	second, err := asm.Assemble(`
		LDI T1, 5
		ADD T1, T1
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFunctional(Config{})
	if err := f.S.Load(first); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.S.Load(&asm.Program{Words: second.Words}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.S.Reg(1).Int(); got != 10 {
		t.Errorf("T1 = %d, want 10 from the reloaded image", got)
	}
}

// TestLoadTrustsAssembledText pins that Load serves fetches from the
// stream of everything the assembler emits, so no run falls back to
// decoding TIM for a program the stream could have served.
func TestLoadTrustsAssembledText(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		src := buildRandomProgram(r, 1+r.Intn(64))
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v\n%s", err, src)
		}
		s := NewState(Config{})
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		if len(s.text) != len(p.Words) {
			t.Fatalf("Load kept %d of %d decoded instructions\n%s", len(s.text), len(p.Words), src)
		}
	}
}

// TestLoadDistrustsUnencodableText hand-builds programs whose decoded
// stream carries an immediate outside its op's field — ADDI 500, LI 200,
// LUI −41 — or a register outside TRF, beside TIM words that encode
// ADDI T1, 1. Load does not trust such a stream, so each core decodes TIM
// instead: the run neither panics nor reads past the packed-immediate
// table, and ends as the words say, with the Result of the program the
// words encode.
func TestLoadDistrustsUnencodableText(t *testing.T) {
	good, err := asm.Assemble("ADDI T1, 1\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []isa.Inst{
		{Op: isa.ADDI, Ta: 1, Imm: 500},
		{Op: isa.LI, Ta: 1, Imm: 200},
		{Op: isa.LUI, Ta: 1, Imm: -41},
		{Op: isa.ADDI, Ta: 1, Imm: 14},
		{Op: isa.ADD, Ta: 1, Tb: isa.NumRegs},
		{Op: isa.NumOps, Ta: 1},
	} {
		p := *good
		p.Text = append([]isa.Inst{bad}, good.Text[1:]...)
		for _, c := range []core{coreFunctional, coreTimed, corePipeline} {
			want := runOn(t, c, good)
			s, run := newCore(c, Config{})
			if err := s.Load(&p); err != nil {
				t.Fatalf("%v with %v: Load: %v", c, bad, err)
			}
			if s.text != nil {
				t.Fatalf("%v with %v: Load trusted the stream", c, bad)
			}
			res, err := run()
			if err != nil {
				t.Fatalf("%v with %v: %v", c, bad, err)
			}
			if res != want || res.Retired != 2 || s.Reg(1).Int() != 1 {
				t.Errorf("%v with %v: T1 %d, result %+v; want T1 1 and %+v", c, bad, s.Reg(1).Int(), res, want)
			}
		}
	}
}

// runOn runs p on core c over a fresh State and returns its Result.
func runOn(t *testing.T, c core, p *asm.Program) Result {
	t.Helper()
	s, run := newCore(c, Config{})
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := run()
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return res
}
