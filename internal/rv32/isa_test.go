package rv32

import (
	"math/rand"
	"testing"
)

func TestOpCount(t *testing.T) {
	if NumOps != NumRV32IM {
		t.Fatalf("NumOps = %d, want %d", NumOps, NumRV32IM)
	}
	// Table II quotes 40 instructions for the RV32I VexRiscv and 48 for
	// the RV32IM PicoRV32.
	if MUL != NumRV32I {
		t.Fatalf("base ISA has %d instructions before MUL, want %d", MUL, NumRV32I)
	}
}

func TestParseRegForms(t *testing.T) {
	cases := map[string]Reg{
		"zero": 0, "x0": 0, "ra": 1, "sp": 2, "fp": 8, "s0": 8,
		"a0": 10, "a7": 17, "t6": 31, "x31": 31, "t0": 5,
	}
	for s, want := range cases {
		got, err := ParseReg(s)
		if err != nil || got != want {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"x32", "q1", "", "a8", "x-1"} {
		if _, err := ParseReg(bad); err == nil {
			t.Errorf("ParseReg(%q) succeeded", bad)
		}
	}
}

// randomRVInst builds a random valid instruction for round-trip testing.
func randomRVInst(rng *rand.Rand) Inst {
	for {
		op := Op(rng.Intn(int(NumOps)))
		in := Inst{Op: op}
		switch op.Fmt() {
		case FmtR:
			in.Rd = Reg(rng.Intn(32))
			in.Rs1 = Reg(rng.Intn(32))
			in.Rs2 = Reg(rng.Intn(32))
		case FmtI:
			in.Rd = Reg(rng.Intn(32))
			in.Rs1 = Reg(rng.Intn(32))
			if op == SLLI || op == SRLI || op == SRAI {
				in.Imm = int32(rng.Intn(32))
			} else {
				in.Imm = int32(rng.Intn(4096) - 2048)
			}
		case FmtS:
			in.Rs1 = Reg(rng.Intn(32))
			in.Rs2 = Reg(rng.Intn(32))
			in.Imm = int32(rng.Intn(4096) - 2048)
		case FmtB:
			in.Rs1 = Reg(rng.Intn(32))
			in.Rs2 = Reg(rng.Intn(32))
			in.Imm = int32(rng.Intn(4096)-2048) * 2
		case FmtU:
			in.Rd = Reg(rng.Intn(32))
			in.Imm = int32(rng.Intn(1 << 20))
		case FmtJ:
			in.Rd = Reg(rng.Intn(32))
			in.Imm = int32(rng.Intn(1<<20)-1<<19) * 2
		}
		return in
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 5000; n++ {
		in := randomRVInst(rng)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%08x) of %v: %v", w, in, err)
		}
		if out != in {
			t.Fatalf("round trip %v -> %08x -> %v", in, w, out)
		}
	}
}

func TestKnownEncodings(t *testing.T) {
	// Golden words checked against the RISC-V spec examples.
	cases := []struct {
		in   Inst
		want uint32
	}{
		{Inst{Op: ADDI, Rd: 0, Rs1: 0, Imm: 0}, 0x00000013},    // nop
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, 0x003100b3},     // add ra,sp,gp
		{Inst{Op: LUI, Rd: 5, Imm: 0x12345}, 0x123452b7},       // lui t0,0x12345
		{Inst{Op: LW, Rd: 10, Rs1: 2, Imm: 8}, 0x00812503},     // lw a0,8(sp)
		{Inst{Op: SW, Rs1: 2, Rs2: 10, Imm: 12}, 0x00a12623},   // sw a0,12(sp)
		{Inst{Op: BEQ, Rs1: 10, Rs2: 11, Imm: -4}, 0xfeb50ee3}, // beq a0,a1,-4
		{Inst{Op: JAL, Rd: 1, Imm: 2048}, 0x001000ef},          // jal ra,+2048
		{Inst{Op: EBREAK}, 0x00100073},
		{Inst{Op: ECALL}, 0x00000073},
		{Inst{Op: MUL, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c58533}, // mul a0,a1,a2
		{Inst{Op: SRAI, Rd: 6, Rs1: 6, Imm: 4}, 0x40435313},   // srai t1,t1,4
	}
	for _, c := range cases {
		w, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if w != c.want {
			t.Errorf("Encode(%v) = %08x, want %08x", c.in, w, c.want)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	bad := []Inst{
		{Op: ADDI, Imm: 5000}, // imm12 overflow
		{Op: BEQ, Imm: 3},     // odd branch offset
		{Op: SLLI, Imm: 32},   // shift > 31
		{Op: LUI, Imm: -1},    // U-imm negative
		{Op: ADD, Rd: 40},     // bad register
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) succeeded", in)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, w := range []uint32{0x00000000, 0xffffffff, 0x0000007f} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%08x) succeeded", w)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !LW.IsLoad() || LW.IsStore() || !SW.IsStore() {
		t.Error("load/store predicates wrong")
	}
	if !BEQ.IsBranch() || JAL.IsBranch() {
		t.Error("branch predicate wrong")
	}
	if !MUL.IsMul() || ADD.IsMul() {
		t.Error("mul predicate wrong")
	}
	if !SLLI.IsShift() || !SRA.IsShift() || ADD.IsShift() {
		t.Error("shift predicate wrong")
	}
	if SW.WritesRd() || BEQ.WritesRd() || !ADD.WritesRd() {
		t.Error("WritesRd wrong")
	}
	if LUI.ReadsRs1() || !ADDI.ReadsRs1() {
		t.Error("ReadsRs1 wrong")
	}
	if ADDI.ReadsRs2() || !ADD.ReadsRs2() || !SW.ReadsRs2() {
		t.Error("ReadsRs2 wrong")
	}
}

// TestOpClassesExhaustive pins Fmt, ReadsRs1, ReadsRs2, WritesRd and
// IsShift for every Op < NumOps against the RISC-V encoding, which the
// opClasses table does not read: the format follows from the major opcode
// in encTable, operand usage from the format, and a shift is an OP or
// OP-IMM instruction with funct3 001 or 101 outside the M extension.
func TestOpClassesExhaustive(t *testing.T) {
	formatOf := map[uint32]Format{
		0b0110011: FmtR,   // OP, and the M extension
		0b0010011: FmtI,   // OP-IMM
		0b0000011: FmtI,   // LOAD
		0b1100111: FmtI,   // JALR
		0b0100011: FmtS,   // STORE
		0b1100011: FmtB,   // BRANCH
		0b0110111: FmtU,   // LUI
		0b0010111: FmtU,   // AUIPC
		0b1101111: FmtJ,   // JAL
		0b0001111: FmtSys, // MISC-MEM
		0b1110011: FmtSys, // SYSTEM
	}
	for op := Op(0); op < NumOps; op++ {
		e, ok := encTable[op]
		if !ok {
			t.Fatalf("%v has no encoding", op)
		}
		f, ok := formatOf[e.opcode]
		if !ok {
			t.Fatalf("%v: unknown major opcode %07b", op, e.opcode)
		}
		if got := op.Fmt(); got != f {
			t.Errorf("%v.Fmt() = %d, want %d", op, got, f)
		}
		reads1 := f == FmtR || f == FmtI || f == FmtS || f == FmtB
		reads2 := f == FmtR || f == FmtS || f == FmtB
		writes := f == FmtR || f == FmtI || f == FmtU || f == FmtJ
		arith := e.opcode == 0b0110011 || e.opcode == 0b0010011
		shift := arith && e.funct7 != 1 && (e.funct3 == 0b001 || e.funct3 == 0b101)
		if got := op.ReadsRs1(); got != reads1 {
			t.Errorf("%v.ReadsRs1() = %v, want %v", op, got, reads1)
		}
		if got := op.ReadsRs2(); got != reads2 {
			t.Errorf("%v.ReadsRs2() = %v, want %v", op, got, reads2)
		}
		if got := op.WritesRd(); got != writes {
			t.Errorf("%v.WritesRd() = %v, want %v", op, got, writes)
		}
		if got := op.IsShift(); got != shift {
			t.Errorf("%v.IsShift() = %v, want %v", op, got, shift)
		}
	}
}
