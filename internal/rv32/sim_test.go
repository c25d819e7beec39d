package rv32

import (
	"testing"
)

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	return p
}

func run(t *testing.T, src string) *Machine {
	t.Helper()
	m := NewMachine(1 << 16)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestBasicALU(t *testing.T) {
	m := run(t, `
		li a0, 100
		li a1, -42
		add a2, a0, a1     # 58
		sub a3, a0, a1     # 142
		xor a4, a0, a1
		and a5, a0, a1
		or  a6, a0, a1
		ebreak
	`)
	if got := int32(m.Reg(12)); got != 58 {
		t.Errorf("add = %d", got)
	}
	if got := int32(m.Reg(13)); got != 142 {
		t.Errorf("sub = %d", got)
	}
	if got := m.Reg(14); got != 100^uint32(0xffffffd6) {
		t.Errorf("xor = %#x", got)
	}
}

func TestX0IsZero(t *testing.T) {
	m := run(t, `
		li zero, 55
		addi x0, x0, 7
		mv a0, zero
		ebreak
	`)
	if m.Reg(0) != 0 || m.Reg(10) != 0 {
		t.Error("x0 not hardwired to zero")
	}
}

func TestLoadStore(t *testing.T) {
	m := run(t, `
		.data
	buf:	.word 0, 0
	bytes:	.byte 0xff, 1, 2, 3
		.text
		li t0, 0x12345678
		la t1, buf
		sw t0, 0(t1)
		lw t2, 0(t1)
		la t3, bytes
		lb t4, 0(t3)       # sign-extended 0xff = -1
		lbu t5, 0(t3)      # 255
		lh t6, 0(t3)       # 0x01ff
		ebreak
	`)
	if m.Reg(7) != 0x12345678 {
		t.Errorf("lw = %#x", m.Reg(7))
	}
	if int32(m.Reg(29)) != -1 {
		t.Errorf("lb = %d, want -1", int32(m.Reg(29)))
	}
	if m.Reg(30) != 255 {
		t.Errorf("lbu = %d", m.Reg(30))
	}
	if m.Reg(31) != 0x01ff {
		t.Errorf("lh = %#x", m.Reg(31))
	}
}

func TestHalfStore(t *testing.T) {
	m := run(t, `
		.data
	buf:	.word 0
		.text
		la t0, buf
		li t1, 0xabcd
		sh t1, 0(t0)
		lhu t2, 0(t0)
		ebreak
	`)
	if m.Reg(7) != 0xabcd {
		t.Errorf("sh/lhu = %#x", m.Reg(7))
	}
}

func TestBranchesAndLoop(t *testing.T) {
	m := run(t, `
		li a0, 0          # sum
		li a1, 1          # i
		li a2, 10         # n
	loop:
		add a0, a0, a1
		addi a1, a1, 1
		ble a1, a2, loop
		ebreak
	`)
	if got := m.Reg(10); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if m.Taken != 9 || m.NotTkn != 1 {
		t.Errorf("taken/not = %d/%d", m.Taken, m.NotTkn)
	}
}

func TestSignedUnsignedBranches(t *testing.T) {
	m := run(t, `
		li t0, -1
		li t1, 1
		li a0, 0
		li a1, 0
		blt t0, t1, s1     # signed: -1 < 1, taken
		j s2
	s1:	li a0, 1
	s2:	bltu t0, t1, u1    # unsigned: 0xffffffff > 1, not taken
		li a1, 2
	u1:	ebreak
	`)
	if m.Reg(10) != 1 {
		t.Error("blt signed failed")
	}
	if m.Reg(11) != 2 {
		t.Error("bltu unsigned failed")
	}
}

func TestSltVariants(t *testing.T) {
	m := run(t, `
		li t0, -5
		li t1, 3
		slt  a0, t0, t1    # 1
		sltu a1, t0, t1    # 0 (0xfffffffb > 3)
		slti a2, t0, 0     # 1
		sltiu a3, t1, 10   # 1
		seqz a4, zero      # 1
		snez a5, t1        # 1
		ebreak
	`)
	want := map[Reg]uint32{10: 1, 11: 0, 12: 1, 13: 1, 14: 1, 15: 1}
	for r, v := range want {
		if m.Reg(r) != v {
			t.Errorf("%v = %d, want %d", r, m.Reg(r), v)
		}
	}
}

func TestShifts(t *testing.T) {
	m := run(t, `
		li t0, -16
		srai a0, t0, 2     # -4
		srli a1, t0, 28    # 0xf
		slli a2, t0, 1     # -32
		li t1, 3
		sll a3, t0, t1     # -128
		ebreak
	`)
	if int32(m.Reg(10)) != -4 || m.Reg(11) != 0xf || int32(m.Reg(12)) != -32 || int32(m.Reg(13)) != -128 {
		t.Errorf("shifts = %d %#x %d %d", int32(m.Reg(10)), m.Reg(11), int32(m.Reg(12)), int32(m.Reg(13)))
	}
}

func TestCallRet(t *testing.T) {
	m := run(t, `
		li a0, 20
		call double
		call double
		ebreak
	double:
		add a0, a0, a0
		ret
	`)
	if m.Reg(10) != 80 {
		t.Errorf("double twice = %d, want 80", m.Reg(10))
	}
}

func TestMulDiv(t *testing.T) {
	m := run(t, `
		li t0, -7
		li t1, 3
		mul a0, t0, t1     # -21
		div a1, t0, t1     # -2
		rem a2, t0, t1     # -1
		li t2, 0
		div a3, t0, t2     # -1 (div by zero per spec)
		rem a4, t0, t2     # rs1
		mulh a5, t0, t1    # high word of -21
		ebreak
	`)
	if int32(m.Reg(10)) != -21 || int32(m.Reg(11)) != -2 || int32(m.Reg(12)) != -1 {
		t.Errorf("mul/div/rem = %d %d %d", int32(m.Reg(10)), int32(m.Reg(11)), int32(m.Reg(12)))
	}
	if m.Reg(13) != ^uint32(0) {
		t.Errorf("div by zero = %#x, want all ones", m.Reg(13))
	}
	if int32(m.Reg(14)) != -7 {
		t.Errorf("rem by zero = %d, want -7", int32(m.Reg(14)))
	}
	if m.Reg(15) != ^uint32(0) {
		t.Errorf("mulh(-21) high = %#x", m.Reg(15))
	}
}

func TestMisalignedFaults(t *testing.T) {
	p := assemble(t, `
		li t0, 2
		lw t1, 0(t0)
		ebreak
	`)
	m := NewMachine(1 << 12)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err == nil {
		t.Error("misaligned lw did not fault")
	}
}

func TestOutOfRAMFaults(t *testing.T) {
	p := assemble(t, `
		li t0, 0x10000
		sw t0, 0(t0)
		ebreak
	`)
	m := NewMachine(1 << 12)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err == nil {
		t.Error("out-of-RAM store did not fault")
	}
}

func TestJumpToSelfHalts(t *testing.T) {
	m := run(t, `
		li a0, 1
	self:	j self
	`)
	if m.Reg(10) != 1 {
		t.Error("program state wrong after jump-to-self halt")
	}
}

func TestAsciz(t *testing.T) {
	m := run(t, `
		.data
	msg:	.asciz "Hi"
		.text
		la t0, msg
		lbu a0, 0(t0)
		lbu a1, 1(t0)
		lbu a2, 2(t0)
		ebreak
	`)
	if m.Reg(10) != 'H' || m.Reg(11) != 'i' || m.Reg(12) != 0 {
		t.Errorf("asciz bytes = %d %d %d", m.Reg(10), m.Reg(11), m.Reg(12))
	}
}

func TestAlignDirective(t *testing.T) {
	p := assemble(t, `
		.data
		.byte 1
		.align 2
	w:	.word 7
		.text
		ebreak
	`)
	if p.Symbols["w"] != 4 {
		t.Errorf("aligned word at %d, want 4", p.Symbols["w"])
	}
}

func TestAsmErrors(t *testing.T) {
	cases := []string{
		"bogus a0, a1",
		"add a0, a1",          // missing operand
		"lw a0, 4(q7)",        // bad register
		"beq a0, a1, nowhere", // undefined label
		"li a0",               // missing value
		".data\n.word x",      // bad value
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestVexRiscvModelBasics(t *testing.T) {
	// Independent straight-line code: CPI → 1.
	src := "li a0, 1\nli a1, 2\nli a2, 3\nli a3, 4\nli a4, 5\nli t0, 1\nli t1, 2\nli t2, 3\nebreak\n"
	m := NewMachine(1 << 12)
	vex := NewVexRiscvModel()
	m.Observe(vex)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 9 instructions, no hazards: 9 slots + 4 drain.
	if vex.TotalCycles() != 13 {
		t.Errorf("vex cycles = %d, want 13", vex.TotalCycles())
	}

	// A dependent chain stalls 2 per link.
	src = "li a0, 1\nadd a0, a0, a0\nadd a0, a0, a0\nebreak\n"
	m = NewMachine(1 << 12)
	vex = NewVexRiscvModel()
	m.Observe(vex)
	m.Load(assemble(t, src))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// slots: li@1, add@4 (ready 1+3), add@7, ebreak@8; +4 drain = 12.
	if vex.TotalCycles() != 12 {
		t.Errorf("dependent chain cycles = %d, want 12", vex.TotalCycles())
	}
}

func TestPicoModelTable(t *testing.T) {
	src := `
		li t0, 4          # ALU: 3
		lw t1, 0(zero)    # load: 5
		sw t1, 4(zero)    # store: 5
		beq t1, t1, next  # taken: 5
	next:	ebreak            # sys → ALU: 3
	`
	m := NewMachine(1 << 12)
	pico := NewPicoRV32Model()
	m.Observe(pico)
	m.Load(assemble(t, src))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pico.TotalCycles(); got != 21 {
		t.Errorf("pico cycles = %d, want 21", got)
	}
}

func TestPicoSerialShift(t *testing.T) {
	src := "li t0, 1\nslli t1, t0, 16\nebreak\n"
	m := NewMachine(1 << 12)
	pico := NewPicoRV32Model()
	pico.SerialShift = true
	m.Observe(pico)
	m.Load(assemble(t, src))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// li 3 + shift (3+16) + ebreak 3 = 25.
	if got := pico.TotalCycles(); got != 25 {
		t.Errorf("serial shift cycles = %d, want 25", got)
	}
}

func TestDualModelObservation(t *testing.T) {
	// One run feeds both models.
	src := "li a0, 7\nadd a0, a0, a0\nebreak\n"
	m := NewMachine(1 << 12)
	vex, pico := NewVexRiscvModel(), NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)
	m.Load(assemble(t, src))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if vex.TotalCycles() == 0 || pico.TotalCycles() == 0 {
		t.Error("models not fed")
	}
	if m.Reg(10) != 14 {
		t.Error("architectural result wrong")
	}
}

// TestSecondVexRiscvModelReplacesFirst pins Observe's one VexRiscv slot:
// a second VexRiscvModel attached replaces the first, so only the second
// counts cycles.
func TestSecondVexRiscvModelReplacesFirst(t *testing.T) {
	m := NewMachine(1 << 12)
	first, second := NewVexRiscvModel(), NewVexRiscvModel()
	m.Observe(first)
	m.Observe(second)
	if err := m.Load(assemble(t, "li a0, 7\nadd a0, a0, a0\nebreak\n")); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// li@1, add@4 (a0 ready 1+3), ebreak@5; +4 drain = 9.
	if first.TotalCycles() != 0 || second.TotalCycles() != 9 {
		t.Errorf("first model %d cycles, second %d; want 0 and 9", first.TotalCycles(), second.TotalCycles())
	}
}

func TestARMv6MEstimator(t *testing.T) {
	p := assemble(t, `
		li t0, 5          # small imm: 1 halfword
		li t1, 0x12345    # wide: folded pair = 3 halfwords
		add t2, t0, t1    # distinct dest: 2
		add t0, t0, t1    # in-place: 1
		lw a0, 0(t0)      # 1
		beq t0, t1, x     # cmp+bcc: 2
	x:	beqz t0, y        # vs zero: 1
	y:	ebreak            # 1
	`)
	bits := EstimateProgram(p)
	// halfwords: 1 + 3 + 2 + 1 + 1 + 2 + 1 + 1 = 12 → 192 bits.
	if bits != 192 {
		t.Errorf("ARMv6-M estimate = %d bits, want 192", bits)
	}
	// The estimate must be below the RV32I size (Fig. 5 ordering) for
	// realistic code.
	if bits >= p.TextBits() {
		t.Errorf("ARMv6-M (%d) not smaller than RV32I (%d)", bits, p.TextBits())
	}
}

func TestTextBits(t *testing.T) {
	p := assemble(t, "nop\nnop\nebreak")
	if p.TextBits() != 96 {
		t.Errorf("TextBits = %d, want 96", p.TextBits())
	}
}
