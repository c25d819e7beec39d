package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// TestAddressSpaceWrap runs both cores across the top of the 3^9-word
// address space, where the unsigned PC 3^9−1 is the balanced word −1 and
// its successor is address 0. Each program jumps there by a negative JAL
// offset from near address 0 and finds a word planted with TIM.Write after
// Load — outside the image, so the fetch falls back to reading and
// decoding TIM:
//
//   - "fall through": a LOAD from the wrapped TDM address −1, after which
//     the PC wraps to 0, where a branch on the loaded value reaches the
//     HALT. On the pipeline the branch also waits out a load-use stall
//     across the wrap.
//   - "link": a JAL whose link, PC+1, must read 0.
//
// Both cores must end in the same state, with the Results and TIM/TDM
// access counts pinned below; RunTimed must give the pipeline's.
func TestAddressSpaceWrap(t *testing.T) {
	const top = ternary.WordStates - 1
	for _, c := range []struct {
		name   string
		src    string
		plant  isa.Inst
		regs   map[isa.Reg]int
		fn, pl Result
		tim    [2]uint64 // TIM reads, writes after Load (the plant is one write)
		tdm    [2]uint64
	}{
		{
			name: "fall through",
			src: `
				BEQ T3, 1, 4      ; second visit: T3 = 7 = 1T1 → HALT
				ADDI T1, 7
				STORE T1, T0, -1  ; TDM[3^9-1] = 7
				JAL T5, -4        ; 3 - 4 = -1 → PC 3^9-1
				HALT
			`,
			plant: isa.Inst{Op: isa.LOAD, Ta: 3, Tb: 0, Imm: -1},
			regs:  map[isa.Reg]int{1: 7, 3: 7, 5: 4},
			fn: Result{Cycles: 7, Retired: 7, Taken: 1, NotTaken: 1, Jumps: 1, Loads: 1, Stores: 1,
				ByCategory: [4]uint64{0, 1, 4, 2},
				ByOp:       [isa.NumOps]uint64{isa.ADDI: 1, isa.BEQ: 2, isa.JAL: 2, isa.LOAD: 1, isa.STORE: 1},
				HaltPC:     4},
			pl: Result{Cycles: 14, Retired: 7, StallsLoad: 1, StallsBranch: 2, Taken: 1, NotTaken: 1, Jumps: 1, Loads: 1, Stores: 1,
				ByCategory: [4]uint64{0, 1, 4, 2},
				ByOp:       [isa.NumOps]uint64{isa.ADDI: 1, isa.BEQ: 2, isa.JAL: 2, isa.LOAD: 1, isa.STORE: 1},
				HaltPC:     4},
			tim: [2]uint64{7, 1},
			tdm: [2]uint64{1, 1},
		},
		{
			name: "link",
			src: `
				ADDI T4, 5        ; a non-zero T4, so a link of 0 shows
				JAL T5, -2        ; 1 - 2 = -1 → PC 3^9-1
				ADDI T6, 1        ; skipped
				HALT
			`,
			plant: isa.Inst{Op: isa.JAL, Ta: 4, Imm: 4}, // -1 + 4 = 3; T4 = 3^9 mod 3^9 = 0
			regs:  map[isa.Reg]int{4: 0, 5: 2, 6: 0},
			fn: Result{Cycles: 4, Retired: 4, Jumps: 2,
				ByCategory: [4]uint64{0, 1, 3, 0},
				ByOp:       [isa.NumOps]uint64{isa.ADDI: 1, isa.JAL: 3},
				HaltPC:     3},
			pl: Result{Cycles: 10, Retired: 4, StallsBranch: 2, Jumps: 2,
				ByCategory: [4]uint64{0, 1, 3, 0},
				ByOp:       [isa.NumOps]uint64{isa.ADDI: 1, isa.JAL: 3},
				HaltPC:     3},
			tim: [2]uint64{4, 1},
		},
	} {
		p, err := asm.Assemble(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var states [3]*State
		for i, k := range []core{coreFunctional, coreTimed, corePipeline} {
			s, run := newCore(k, Config{})
			if err := s.Load(p); err != nil {
				t.Fatal(err)
			}
			if err := s.TIM.Write(top, isa.MustEncode(c.plant)); err != nil {
				t.Fatal(err)
			}
			res, err := run()
			if err != nil {
				t.Fatalf("%s (%v): %v", c.name, k, err)
			}
			want := c.pl
			if k == coreFunctional {
				want = c.fn
			}
			if res != want {
				t.Errorf("%s (%v): Result\n%+v, want\n%+v", c.name, k, res, want)
			}
			if got, want := accesses(s), [4]uint64{c.tim[0], c.tim[1], c.tdm[0], c.tdm[1]}; got != want {
				t.Errorf("%s (%v): TIM/TDM reads and writes %v, want %v", c.name, k, got, want)
			}
			states[i] = s
		}
		fs := states[0]
		for i, s := range states[1:] {
			k := core(i + 1)
			if s.PC != fs.PC || s.TRF != fs.TRF {
				t.Errorf("%s: cores disagree: functional PC %v TRF %v, %v PC %v TRF %v", c.name, fs.PC, fs.TRF, k, s.PC, s.TRF)
			}
			if ft, st := fs.TDM.Snapshot(), s.TDM.Snapshot(); ft[top] != st[top] {
				t.Errorf("%s: TDM[3^9-1] functional %v, %v %v", c.name, ft[top], k, st[top])
			}
		}
		for r, want := range c.regs {
			if got := fs.Reg(r).Int(); got != want {
				t.Errorf("%s: T%d = %d, want %d", c.name, r, got, want)
			}
		}
	}
}

// TestIndexArithmeticExhaustive checks the run loops' index datapaths
// against the packed-word arithmetic they stand for, for every index u in
// [0, 3^9) and every immediate of the widest (5-trit) field: PC+imm and
// base+offset (addIndex), and PC+1 and the JAL/JALR link (incIndex).
func TestIndexArithmeticExhaustive(t *testing.T) {
	maxImm := 1
	for i := 0; i < isa.JAL.ImmTrits(); i++ {
		maxImm *= 3
	}
	maxImm /= 2 // 121
	imms := make([]ternary.Packed, 2*maxImm+1)
	for i := range imms {
		imms[i] = ternary.PackedFromInt(i - maxImm)
	}
	for u := 0; u < ternary.WordStates; u++ {
		w := ternary.PackedFromInt(u)
		inc := w.Inc()
		if seq := incIndex(u); seq != inc.UIndex() || ternary.PackedFromInt(seq) != inc {
			t.Fatalf("incIndex(%d) = %d (link %v), want %d (%v)", u, seq, ternary.PackedFromInt(seq), inc.UIndex(), inc)
		}
		for i, imm := range imms {
			if got, want := addIndex(u, i-maxImm), w.Add(imm).UIndex(); got != want {
				t.Fatalf("addIndex(%d, %d) = %d, want %d", u, i-maxImm, got, want)
			}
		}
	}
}

// TestPCWrittenBack pins where each core leaves State.PC when the budget
// runs out: where the next fetch would be. Where a fetch fault leaves it
// is pinned by TestFetchFaultText.
func TestPCWrittenBack(t *testing.T) {
	loop, err := asm.Assemble("loop: ADDI T1, 1\nJAL T0, loop\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		core core
		pc   int
	}{
		// 1000 steps of the two-instruction loop end back at its head.
		{coreFunctional, 0},
		// After the 4-cycle fill each pass costs three cycles (ADDI, JAL
		// and its squashed slot), so 332 passes use the budget up exactly
		// and the next would start at the head.
		{coreTimed, 0},
		// The pipeline repeats fetch ADDI, fetch JAL, squash every three
		// cycles from cycle 1, so cycle 1000 has just fetched ADDI.
		{corePipeline, 1},
	} {
		s, run := newCore(c.core, Config{MaxSteps: 1000})
		if err := s.Load(loop); err != nil {
			t.Fatal(err)
		}
		if _, err := run(); err != (ErrNoHalt{1000}) {
			t.Errorf("%v: error %v, want ErrNoHalt{1000}", c.core, err)
		}
		if got := s.PC.Int(); got != c.pc {
			t.Errorf("%v: PC = %d, want %d", c.core, got, c.pc)
		}
	}
}
