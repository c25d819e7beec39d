// Package rv32 implements the binary baseline substrate the paper compares
// against (§V, Tables II/III and Fig. 5): the RV32I base ISA (40
// instructions) plus the M extension (48 total, the PicoRV32 RV32IM
// configuration), a two-pass assembler, an instruction-accurate simulator,
// and trace-driven cycle models of the two baseline cores:
//
//   - VexRiscv-like: 5-stage in-order pipeline in its small interlocked
//     (no-bypass) configuration, the published ≈0.65 DMIPS/MHz operating
//     point the paper cites, and
//   - PicoRV32-like: the non-pipelined multi-cycle core, using the
//     per-instruction cycle costs from the PicoRV32 documentation
//     (≈0.31 DMIPS/MHz, CPI ≈ 4).
//
// An ARMv6-M (Thumb-1) code-size estimator provides the third column of
// Fig. 5. See DESIGN.md §4 for the substitution rationale.
package rv32

import "fmt"

// Op identifies an RV32IM instruction.
type Op uint8

// RV32I base instructions (40) followed by the M extension (8).
const (
	LUI Op = iota
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	FENCE
	ECALL
	EBREAK

	// M extension.
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	NumOps
)

// NumRV32I is the instruction count of the base ISA, the Table II figure
// for VexRiscv; NumRV32IM is the PicoRV32 figure.
const (
	NumRV32I  = 40
	NumRV32IM = 48
)

var opNames = [NumOps]string{
	"lui", "auipc", "jal", "jalr",
	"beq", "bne", "blt", "bge", "bltu", "bgeu",
	"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw",
	"addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
	"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
	"fence", "ecall", "ebreak",
	"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpByName maps mnemonics to opcodes.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for i, n := range opNames {
		m[n] = Op(i)
	}
	return m
}()

// Format classes, mirroring the RISC-V instruction formats.
type Format uint8

const (
	FmtR   Format = iota // rd, rs1, rs2
	FmtI                 // rd, rs1, imm (also loads: rd, imm(rs1))
	FmtS                 // rs2, imm(rs1)
	FmtB                 // rs1, rs2, target
	FmtU                 // rd, imm20
	FmtJ                 // rd, target
	FmtSys               // no operands
)

// Fmt returns the encoding format of op.
func (op Op) Fmt() Format { return opClasses[op].fmt }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return op >= LB && op <= LHU }

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return op >= SB && op <= SW }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op >= BEQ && op <= BGEU }

// IsMul reports whether op belongs to the M extension.
func (op Op) IsMul() bool { return op >= MUL }

// IsShift reports whether op is a shift (serial on PicoRV32 without the
// barrel shifter).
func (op Op) IsShift() bool { return opClasses[op].shift }

// WritesRd reports whether op writes a destination register.
func (op Op) WritesRd() bool { return opClasses[op].writesRd }

// ReadsRs1 and ReadsRs2 report the source-register usage.
func (op Op) ReadsRs1() bool { return opClasses[op].readsRs1 }

func (op Op) ReadsRs2() bool { return opClasses[op].readsRs2 }

// opClass is an opcode's encoding format and operand usage. The simulator
// and both cycle models ask for these several times per retired
// instruction, so each is one load from opClasses.
type opClass struct {
	fmt                          Format
	readsRs1, readsRs2, writesRd bool
	shift                        bool
}

// opClasses holds the class of every Op value, so indexing it needs no
// bounds check; values past NumOps classify as I-format, as they always
// have.
var opClasses = func() (t [1 << 8]opClass) {
	for i := range t {
		t[i] = classify(Op(i))
	}
	return t
}()

// classify computes op's class from its RISC-V format: R, I, S and B read
// rs1; R, S and B read rs2; R, I, U and J write rd.
func classify(op Op) opClass {
	var f Format
	switch op {
	case LUI, AUIPC:
		f = FmtU
	case JAL:
		f = FmtJ
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		f = FmtB
	case SB, SH, SW:
		f = FmtS
	case FENCE, ECALL, EBREAK:
		f = FmtSys
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU:
		f = FmtR
	default:
		f = FmtI
	}
	c := opClass{
		fmt:      f,
		readsRs1: f == FmtR || f == FmtI || f == FmtS || f == FmtB,
		readsRs2: f == FmtR || f == FmtS || f == FmtB,
		writesRd: f == FmtR || f == FmtI || f == FmtU || f == FmtJ,
	}
	switch op {
	case SLL, SRL, SRA, SLLI, SRLI, SRAI:
		c.shift = true
	}
	return c
}

// Reg is an RV32 register index x0..x31.
type Reg uint8

// NumRegs is the architectural register count — the paper's register
// renaming (§III-A) maps these 32 onto ART-9's 9.
const NumRegs = 32

var abiNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of r.
func (r Reg) String() string {
	if r < NumRegs {
		return abiNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// ParseReg accepts both "x7" numeric and ABI names ("t2", "fp"...).
func ParseReg(s string) (Reg, error) {
	if len(s) >= 2 && (s[0] == 'x' || s[0] == 'X') {
		n := 0
		for _, c := range s[1:] {
			if c < '0' || c > '9' {
				n = -1
				break
			}
			n = n*10 + int(c-'0')
		}
		if n >= 0 && n < NumRegs {
			return Reg(n), nil
		}
	}
	if s == "fp" { // frame pointer alias
		return 8, nil
	}
	for i, n := range abiNames {
		if n == s {
			return Reg(i), nil
		}
	}
	return 0, fmt.Errorf("rv32: invalid register %q", s)
}

// Inst is a decoded RV32IM instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// String disassembles i.
func (i Inst) String() string {
	switch i.Op.Fmt() {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	case FmtI:
		if i.Op.IsLoad() || i.Op == JALR {
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case FmtS:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case FmtU:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	default:
		return i.Op.String()
	}
}
