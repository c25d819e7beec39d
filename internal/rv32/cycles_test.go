package rv32

import "testing"

func runWithModels(t *testing.T, src string) (*VexRiscvModel, *PicoRV32Model) {
	t.Helper()
	m := NewMachine(1 << 14)
	vex, pico := NewVexRiscvModel(), NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return vex, pico
}

func TestVexBranchPenalty(t *testing.T) {
	// Taken branch: +2 flush; not-taken: free.
	vexT, _ := runWithModels(t, `
		li t0, 1
		beq t0, t0, next   # taken
	next:	ebreak
	`)
	vexN, _ := runWithModels(t, `
		li t0, 1
		bne t0, t0, never  # not taken
		ebreak
	never:	ebreak
	`)
	// Interlock first (beq reads t0, ready at 1+3=4), then the taken
	// penalty: li@1, beq@4(+2), ebreak@7 → 7+4 = 11.
	// Not taken: li@1, bne@4, ebreak@5 → 5+4 = 9.
	if vexT.TotalCycles() != 11 {
		t.Errorf("taken-branch cycles = %d, want 11", vexT.TotalCycles())
	}
	if vexN.TotalCycles() != 9 {
		t.Errorf("not-taken cycles = %d, want 9", vexN.TotalCycles())
	}
	if vexT.TotalCycles()-vexN.TotalCycles() != 2 {
		t.Error("taken-branch penalty is not 2 cycles")
	}
}

// TestVexJumpPenaltyIgnoresTaken pins that a jump pays the flush
// whatever the observer is told about its outcome: the model reads the
// transfer from the opcode, not from taken.
func TestVexJumpPenaltyIgnoresTaken(t *testing.T) {
	for _, op := range []Op{JAL, JALR} {
		v := NewVexRiscvModel()
		v.Retire(Inst{Op: op}, false, 0)
		v.Retire(Inst{Op: ADDI}, false, 0)
		// jump@1 (+2 flush), addi@4 → 4+4 = 8.
		if got := v.TotalCycles(); got != 8 {
			t.Errorf("%v reported not taken: %d cycles, want 8", op, got)
		}
	}
}

func TestVexMulDivLatency(t *testing.T) {
	vex, _ := runWithModels(t, `
		li t0, 6
		li t1, 7
		mul t2, t0, t1
		ebreak
	`)
	// li@1, li@2, mul waits for t1 (ready@5) then +4 extra → next
	// issue @10, ebreak@10 → 10+4 = 14.
	if vex.TotalCycles() != 14 {
		t.Errorf("mul cycles = %d, want 14", vex.TotalCycles())
	}
	vexd, _ := runWithModels(t, `
		li t0, 42
		li t1, 7
		div t2, t0, t1
		ebreak
	`)
	// div@5 + 33 extra → ebreak@39 → 39+4 = 43.
	if vexd.TotalCycles() != 43 {
		t.Errorf("div cycles = %d, want 43", vexd.TotalCycles())
	}
}

func TestVexLoadInterlock(t *testing.T) {
	// lw then immediate use: no bypass → consumer waits for writeback.
	vex, _ := runWithModels(t, `
		.data
	v:	.word 5
		.text
		la t0, v
		lw t1, 0(t0)
		addi t1, t1, 1
		ebreak
	`)
	// la@1, lw@2(interlock on t0: ready@1+3=4 → lw@4), addi: t1 ready@7
	// → addi@7, ebreak@8 → 12.
	if vex.TotalCycles() != 12 {
		t.Errorf("load interlock cycles = %d, want 12", vex.TotalCycles())
	}
}

func TestPicoJalrAndJumpCosts(t *testing.T) {
	_, pico := runWithModels(t, `
		call fn            # jal: 3
		ebreak             # 3
	fn:	ret                # jalr: 6
	`)
	if got := pico.TotalCycles(); got != 12 {
		t.Errorf("pico call/ret cycles = %d, want 12", got)
	}
}

func TestPicoMulConfiguration(t *testing.T) {
	// The shipped configuration uses the sequential multiplier.
	_, pico := runWithModels(t, `
		li t0, 3
		li t1, 4
		mul t2, t0, t1
		ebreak
	`)
	// 3 + 3 + 35 + 3 = 44.
	if got := pico.TotalCycles(); got != 44 {
		t.Errorf("pico mul cycles = %d, want 44", got)
	}
	// Fast-multiply ablation.
	m := NewMachine(1 << 12)
	fast := NewPicoRV32Model()
	fast.Mul = 4
	m.Observe(fast)
	p, _ := Assemble("li t0, 3\nli t1, 4\nmul t2, t0, t1\nebreak")
	m.Load(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fast.TotalCycles(); got != 13 {
		t.Errorf("fast-mul cycles = %d, want 13", got)
	}
}

func TestModelsEmptyProgram(t *testing.T) {
	vex, pico := runWithModels(t, "ebreak")
	if vex.TotalCycles() != 5 { // 1 slot + 4 drain
		t.Errorf("vex single-instruction cycles = %d, want 5", vex.TotalCycles())
	}
	if pico.TotalCycles() != 3 {
		t.Errorf("pico single-instruction cycles = %d, want 3", pico.TotalCycles())
	}
}

func TestVexZeroRegisterNeverInterlocks(t *testing.T) {
	// Writes to x0 must not create dependencies.
	vex, _ := runWithModels(t, `
		add zero, zero, zero
		add t0, zero, zero
		ebreak
	`)
	// No interlocks: 3 slots + 4 = 7.
	if vex.TotalCycles() != 7 {
		t.Errorf("x0 interlock: %d cycles, want 7", vex.TotalCycles())
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 10, Rs1: 11, Rs2: 12}, "add a0, a1, a2"},
		{Inst{Op: ADDI, Rd: 10, Rs1: 0, Imm: 5}, "addi a0, zero, 5"},
		{Inst{Op: LW, Rd: 5, Rs1: 2, Imm: 8}, "lw t0, 8(sp)"},
		{Inst{Op: SW, Rs1: 2, Rs2: 5, Imm: -4}, "sw t0, -4(sp)"},
		{Inst{Op: BEQ, Rs1: 5, Rs2: 6, Imm: 16}, "beq t0, t1, 16"},
		{Inst{Op: JAL, Rd: 1, Imm: 64}, "jal ra, 64"},
		{Inst{Op: LUI, Rd: 7, Imm: 9}, "lui t2, 9"},
		{Inst{Op: EBREAK}, "ebreak"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}
