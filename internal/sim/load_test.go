package sim

import (
	"testing"

	"repro/internal/asm"
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
