package xlate

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/ternary"
)

// mapInst is the instruction-mapping phase for one RV32 instruction
// (Fig. 2, "instruction mapping" + "operand conversion"). Each binary
// instruction becomes one ternary instruction or a primitive sequence.
func (t *translator) mapInst(idx int, in rv32.Inst) error {
	if t.skip[idx] {
		return nil
	}
	switch in.Op {
	case rv32.ADD:
		t.binOp(isa.ADD, in.Rd, in.Rs1, in.Rs2)
	case rv32.SUB:
		t.binOp(isa.SUB, in.Rd, in.Rs1, in.Rs2)
	case rv32.AND:
		if in.Rs1 == 0 || in.Rs2 == 0 {
			t.storeConst(in.Rd, 0) // binary and with zero
			return nil
		}
		t.diagf("AND at %d: ternary min (boolean semantics)", idx)
		t.binOp(isa.AND, in.Rd, in.Rs1, in.Rs2)
	case rv32.OR:
		if in.Rs2 == 0 {
			t.move(in.Rd, in.Rs1) // or x,0 == mv
			return nil
		}
		if in.Rs1 == 0 {
			t.move(in.Rd, in.Rs2)
			return nil
		}
		t.diagf("OR at %d: ternary max (boolean semantics)", idx)
		t.binOp(isa.OR, in.Rd, in.Rs1, in.Rs2)
	case rv32.XOR:
		if in.Rs2 == 0 {
			t.move(in.Rd, in.Rs1)
			return nil
		}
		if in.Rs1 == 0 {
			t.move(in.Rd, in.Rs2)
			return nil
		}
		t.diagf("XOR at %d: |a-b| (equality semantics)", idx)
		t.xorDiff(in.Rd, in.Rs1, in.Rs2)

	case rv32.ADDI:
		if in.Rs1 == 0 {
			t.storeConst(in.Rd, int(in.Imm))
			return nil
		}
		t.immOp(isa.ADDI, isa.ADD, in.Rd, in.Rs1, int(in.Imm))
	case rv32.ANDI:
		t.diagf("ANDI at %d: ternary min (boolean semantics)", idx)
		t.immOp(isa.ANDI, isa.AND, in.Rd, in.Rs1, int(in.Imm))
	case rv32.ORI:
		if in.Imm == 0 {
			t.move(in.Rd, in.Rs1)
			return nil
		}
		t.diagf("ORI at %d: ternary max (boolean semantics)", idx)
		t.immOp(isa.OR, isa.OR, in.Rd, in.Rs1, int(in.Imm))
	case rv32.XORI:
		if in.Imm == 0 {
			t.move(in.Rd, in.Rs1)
			return nil
		}
		t.diagf("XORI at %d: |a-imm| (equality semantics)", idx)
		t.ldi(scratchB, int(in.Imm))
		t.xorDiffReg(in.Rd, in.Rs1)

	case rv32.SLT, rv32.SLTU:
		if in.Op == rv32.SLTU {
			t.diagf("SLTU at %d: signed compare (value contract)", idx)
		}
		b := t.read(in.Rs2, scratchB)
		if b != scratchB {
			t.r2(isa.MV, scratchB, b)
		}
		t.sltCore(in.Rd, in.Rs1)
	case rv32.SLTI, rv32.SLTIU:
		if in.Op == rv32.SLTIU {
			t.diagf("SLTIU at %d: signed compare (value contract)", idx)
		}
		t.ldi(scratchB, int(in.Imm))
		t.sltCore(in.Rd, in.Rs1)

	case rv32.SLLI:
		t.shiftLeftConst(in.Rd, in.Rs1, int(in.Imm), idx)
	case rv32.SRLI, rv32.SRAI:
		if in.Op == rv32.SRLI {
			t.diagf("SRLI at %d: arithmetic shift (value contract)", idx)
		}
		if in.Imm == 0 {
			t.move(in.Rd, in.Rs1)
			return nil
		}
		// Divide by 2^k through the runtime divider.
		if in.Imm > 13 {
			t.diagf("shift %d at %d saturates to 0", in.Imm, idx)
			t.storeConst(in.Rd, 0)
			return nil
		}
		t.ldi(scratchB, 1<<uint(in.Imm))
		t.mem(isa.STORE, scratchB, regZero, rtArgB)
		a := t.read(in.Rs1, scratchA)
		if a != scratchA {
			t.r2(isa.MV, scratchA, a)
		}
		t.callDivmodMode(in.Rd, false, true)
	case rv32.SLL:
		t.diagf("SLL at %d: inline doubling loop", idx)
		t.shiftVar(idx, in, true)
	case rv32.SRL, rv32.SRA:
		t.diagf("%v at %d: inline pow2 + divide", in.Op, idx)
		t.shiftVar(idx, in, false)

	case rv32.LUI:
		// Fold the li idiom (LUI rd, hi; ADDI rd, rd, lo) into one
		// constant when the pair is unbroken by a label. The 20-bit
		// pattern denotes the sign-interpreted 32-bit word it loads.
		v := int64(int32(uint32(in.Imm) << 12))
		if next, ok := t.peek(idx + 1); ok && next.Op == rv32.ADDI &&
			next.Rd == in.Rd && next.Rs1 == in.Rd {
			if _, hasLabel := t.labelAt[idx+1]; !hasLabel {
				v += int64(next.Imm)
				t.skip[idx+1] = true
			}
		}
		t.storeConst(in.Rd, wrapValue(v))
	case rv32.AUIPC:
		return fmt.Errorf("AUIPC is not supported (Harvard layout has no PC-relative data)")

	case rv32.BEQ:
		t.condBranch(idx, in, ternary.Zero, isa.BEQ)
	case rv32.BNE:
		t.condBranch(idx, in, ternary.Zero, isa.BNE)
	case rv32.BLT:
		t.condBranch(idx, in, ternary.Neg, isa.BEQ)
	case rv32.BGE:
		t.condBranch(idx, in, ternary.Neg, isa.BNE)
	case rv32.BLTU:
		t.diagf("BLTU at %d: signed compare (value contract)", idx)
		t.condBranch(idx, in, ternary.Neg, isa.BEQ)
	case rv32.BGEU:
		t.diagf("BGEU at %d: signed compare (value contract)", idx)
		t.condBranch(idx, in, ternary.Neg, isa.BNE)

	case rv32.JAL:
		t.jal(idx, in)
	case rv32.JALR:
		t.jalr(idx, in)

	case rv32.LW, rv32.LB, rv32.LH, rv32.LBU, rv32.LHU:
		if in.Op != rv32.LW {
			t.diagf("%v at %d: word-grain memory (one word per element)", in.Op, idx)
		}
		t.loadWord(in)
	case rv32.SW, rv32.SB, rv32.SH:
		if in.Op != rv32.SW {
			t.diagf("%v at %d: word-grain memory (one word per element)", in.Op, idx)
		}
		t.storeWord(in)

	case rv32.MUL:
		if t.opts.NoInlineMul {
			t.diagf("MUL at %d: trit-serial runtime multiply (9-trit product)", idx)
			t.mulViaRuntime(in)
		} else {
			t.diagf("MUL at %d: inline trit-serial multiply (9-trit product)", idx)
			t.mulInline(idx, in)
		}
	case rv32.MULH, rv32.MULHSU, rv32.MULHU:
		t.diagf("%v at %d: high word is 0 under the value contract", in.Op, idx)
		t.storeConst(in.Rd, 0)
	case rv32.DIV, rv32.DIVU:
		if in.Op == rv32.DIVU {
			t.diagf("DIVU at %d: signed divide (value contract)", idx)
		} else {
			t.diagf("DIV at %d: trit-serial runtime divide", idx)
		}
		t.divRem(in, false)
	case rv32.REM, rv32.REMU:
		if in.Op == rv32.REMU {
			t.diagf("REMU at %d: signed remainder (value contract)", idx)
		} else {
			t.diagf("REM at %d: trit-serial runtime remainder", idx)
		}
		t.divRem(in, true)

	case rv32.FENCE:
		t.diagf("FENCE at %d dropped (single-core TDM)", idx)
	case rv32.ECALL, rv32.EBREAK:
		t.emit(asm.Stmt{Op: asm.HALT})
	default:
		return fmt.Errorf("unmapped opcode %v", in.Op)
	}
	return nil
}

func wrapValue(v int64) int {
	m := v % int64(ternary.WordStates)
	if m > int64(ternary.MaxInt) {
		m -= int64(ternary.WordStates)
	} else if m < int64(ternary.MinInt) {
		m += int64(ternary.WordStates)
	}
	return int(m)
}

func (t *translator) peek(idx int) (rv32.Inst, bool) {
	if idx < len(t.src.Insts) {
		return t.src.Insts[idx], true
	}
	return rv32.Inst{}, false
}

// storeConst sets rd to a constant.
func (t *translator) storeConst(rd rv32.Reg, v int) {
	if rd == 0 {
		return
	}
	d := t.writeTarget(rd, scratchA)
	t.ldi(d, v)
	t.writeBack(rd, d)
}

// move copies rs into rd.
func (t *translator) move(rd, rs rv32.Reg) {
	if rd == 0 || rd == rs {
		return
	}
	d := t.writeTarget(rd, scratchA)
	a := t.read(rs, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	t.writeBack(rd, d)
}

// binOp implements rd = rs1 OP rs2 with the two-address conversion.
// Commutative operations with rd == rs2 flip their operands to save the
// copy (part of the Fig. 2 mapping-quality work).
func (t *translator) binOp(op isa.Op, rd, rs1, rs2 rv32.Reg) {
	if rd == 0 {
		return
	}
	if rd == rs2 && rd != rs1 && commutative(op) {
		rs1, rs2 = rs2, rs1
	}
	d := t.writeTarget(rd, scratchA)
	b := t.read(rs2, scratchB)
	if b == d && rd != rs1 {
		// d will be overwritten before OP reads b: secure b first.
		t.r2(isa.MV, scratchB, b)
		b = scratchB
	}
	a := t.read(rs1, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	t.r2(op, d, b)
	t.writeBack(rd, d)
}

// commutative reports whether the ternary operation is commutative.
func commutative(op isa.Op) bool {
	switch op {
	case isa.ADD, isa.AND, isa.OR, isa.XOR:
		return true
	}
	return false
}

// immOp implements rd = rs1 OP imm, using the I-type form when the
// immediate fits its 3-trit field and synthesising it otherwise. Additive
// immediates slightly beyond the field are cheaper as a short ADDI chain
// than as a full LUI/LI construction. An op with no I-type form passes
// its register form as immForm.
func (t *translator) immOp(immForm, regForm isa.Op, rd, rs1 rv32.Reg, imm int) {
	if rd == 0 {
		return
	}
	if immForm.Category() == isa.CatI && ternary.FitsTrits(imm, 3) {
		d := t.writeTarget(rd, scratchA)
		a := t.read(rs1, d)
		if a != d {
			t.r2(isa.MV, d, a)
		}
		t.imm(immForm, d, imm)
		t.writeBack(rd, d)
		return
	}
	if immForm == isa.ADDI && abs(imm) <= 39 {
		d := t.writeTarget(rd, scratchA)
		a := t.read(rs1, d)
		if a != d {
			t.r2(isa.MV, d, a)
		}
		for imm != 0 {
			step := clamp13(imm)
			t.imm(isa.ADDI, d, step)
			imm -= step
		}
		t.writeBack(rd, d)
		return
	}
	// Wide immediate: build it in scratchB, then the register form.
	t.ldi(scratchB, imm)
	d := t.writeTarget(rd, scratchA)
	a := t.read(rs1, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	t.r2(regForm, d, scratchB)
	t.writeBack(rd, d)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// clamp13 returns the largest 3-trit step toward zero from v.
func clamp13(v int) int {
	if v > 13 {
		return 13
	}
	if v < -13 {
		return -13
	}
	return v
}

// memAddr prepares (base register, folded offset) for a LOAD/STORE whose
// RV32 offset may exceed the 3-trit field: a short ADDI chain into scratch
// for mid-range offsets, the full constant construction beyond that. It
// must not clobber avoid (the store-value register).
func (t *translator) memAddr(rs1 rv32.Reg, off int, avoid isa.Reg) (isa.Reg, int) {
	base := t.read(rs1, scratchA)
	if ternary.FitsTrits(off, 3) {
		return base, off
	}
	if base != scratchA {
		t.r2(isa.MV, scratchA, base)
	}
	if abs(off) <= 52 {
		for !ternary.FitsTrits(off, 3) {
			step := clamp13(off)
			t.imm(isa.ADDI, scratchA, step)
			off -= step
		}
		return scratchA, off
	}
	// Far offset: build it in the scratch not holding the store value.
	if avoid == scratchB {
		t.mem(isa.STORE, scratchB, regZero, rtSaveT3)
	}
	t.ldi(scratchB, off)
	t.r2(isa.ADD, scratchA, scratchB)
	if avoid == scratchB {
		t.mem(isa.LOAD, scratchB, regZero, rtSaveT3)
	}
	return scratchA, 0
}

// xorDiff implements the equality-flavoured XOR: rd = |rs1 − rs2|.
func (t *translator) xorDiff(rd, rs1, rs2 rv32.Reg) {
	if rd == 0 {
		return
	}
	b := t.read(rs2, scratchB)
	if b != scratchB {
		t.r2(isa.MV, scratchB, b)
	}
	t.xorDiffReg(rd, rs1)
}

// xorDiffReg finishes |rs1 − scratchB| into rd.
func (t *translator) xorDiffReg(rd, rs1 rv32.Reg) {
	d := t.writeTarget(rd, scratchA)
	a := t.read(rs1, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	t.r2(isa.SUB, d, scratchB)
	// |x| = max(x, −x).
	t.r2(isa.STI, scratchB, d)
	t.r2(isa.OR, d, scratchB)
	t.writeBack(rd, d)
}

// sltCore finishes rd = (rs1 < scratchB) as 0/1.
func (t *translator) sltCore(rd, rs1 rv32.Reg) {
	if rd == 0 {
		return
	}
	d := t.writeTarget(rd, scratchA)
	a := t.read(rs1, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	t.r2(isa.COMP, d, scratchB) // LST = sign(rs1 − b)
	t.r2(isa.STI, d, d)         // +1 when rs1 < b
	t.r2(isa.OR, d, regZero)    // clamp −1 → 0 (max with zero)
	t.writeBack(rd, d)
}

// shiftLeftConst implements rd = rs1 << k as k doublings (binary shifts
// are powers of two; ternary SLI is a power of three, so the mapping uses
// the additive primitive sequence of §III-A).
func (t *translator) shiftLeftConst(rd, rs1 rv32.Reg, k, idx int) {
	if rd == 0 {
		return
	}
	if k == 0 {
		t.move(rd, rs1)
		return
	}
	if k > 13 {
		t.diagf("shift %d at %d saturates to 0", k, idx)
		t.storeConst(rd, 0)
		return
	}
	d := t.writeTarget(rd, scratchA)
	a := t.read(rs1, d)
	if a != d {
		t.r2(isa.MV, d, a)
	}
	for i := 0; i < k; i++ {
		t.r2(isa.ADD, d, d)
	}
	t.writeBack(rd, d)
}

// condBranch maps an RV32 conditional branch: COMP into scratchA, then a
// ternary branch on the comparison trit. Comparisons against x0 of a
// value provably in {−1, 0, +1} branch on the LST directly — for such
// values sign(x) equals the least significant trit, so the COMP sequence
// collapses to the one-instruction ternary branch.
func (t *translator) condBranch(idx int, in rv32.Inst, b ternary.Trit, op isa.Op) {
	target := t.targetLabel(idx, in)
	if in.Rs2 == 0 && t.boolReg[in.Rs1] {
		rb := t.read(in.Rs1, scratchA)
		t.branch(op, rb, b, target)
		return
	}
	if in.Rs1 == 0 && t.boolReg[in.Rs2] {
		// sign(0 − x) = −LST(x) for small x.
		rb := t.read(in.Rs2, scratchA)
		t.branch(op, rb, -b, target)
		return
	}
	rb := t.read(in.Rs2, scratchB)
	a := t.read(in.Rs1, scratchA)
	if a != scratchA {
		t.r2(isa.MV, scratchA, a)
	}
	t.r2(isa.COMP, scratchA, rb)
	t.branch(op, scratchA, b, target)
}

// jal maps JAL rd, target.
func (t *translator) jal(idx int, in rv32.Inst) {
	target := t.targetLabel(idx, in)
	if in.Rd == 0 {
		t.jalTo(scratchB, target)
		return
	}
	if d, ok := t.alloc.isDirect(in.Rd); ok {
		t.jalTo(d, target)
		return
	}
	// Spilled link register: materialise the return address first (the
	// store after a JAL would never execute).
	ret := fmt.Sprintf("R%d", idx)
	t.emit(asm.Stmt{Op: asm.LDA, Ta: scratchB, Target: ret})
	t.writeBack(in.Rd, scratchB)
	t.jalTo(scratchB, target)
	t.label(ret)
}

// jalr maps JALR rd, rs1, imm.
func (t *translator) jalr(idx int, in rv32.Inst) {
	a := t.read(in.Rs1, scratchA)
	off := int(in.Imm)
	if !ternary.FitsTrits(off, 3) {
		if a != scratchA {
			t.r2(isa.MV, scratchA, a)
			a = scratchA
		}
		t.ldi(scratchB, off)
		t.r2(isa.ADD, scratchA, scratchB)
		off = 0
	}
	link := scratchB
	if in.Rd != 0 {
		if d, ok := t.alloc.isDirect(in.Rd); ok {
			link = d
		} else {
			ret := fmt.Sprintf("R%d", idx)
			t.emit(asm.Stmt{Op: asm.LDA, Ta: scratchB, Target: ret})
			t.writeBack(in.Rd, scratchB)
			t.mem(isa.JALR, scratchB, a, off)
			t.label(ret)
			return
		}
	}
	t.mem(isa.JALR, link, a, off)
}

// loadWord maps LW-family: RV32 byte addresses are used directly as TDM
// word addresses (each RV32 word element occupies one TDM word at the same
// numeric address; see the value contract).
func (t *translator) loadWord(in rv32.Inst) {
	if in.Rd == 0 {
		return
	}
	base, off := t.memAddr(in.Rs1, int(in.Imm), 0)
	d := t.writeTarget(in.Rd, scratchB)
	t.mem(isa.LOAD, d, base, off)
	t.writeBack(in.Rd, d)
}

// storeWord maps SW-family.
func (t *translator) storeWord(in rv32.Inst) {
	v := t.read(in.Rs2, scratchB)
	base, off := t.memAddr(in.Rs1, int(in.Imm), v)
	t.mem(isa.STORE, v, base, off)
}

// divRem maps DIV/REM through the runtime divider.
func (t *translator) divRem(in rv32.Inst, wantRem bool) {
	if in.Rd == 0 {
		return
	}
	b := t.read(in.Rs2, scratchB)
	t.mem(isa.STORE, b, regZero, rtArgB)
	a := t.read(in.Rs1, scratchA)
	if a != scratchA {
		t.r2(isa.MV, scratchA, a)
	}
	t.callDivmod(in.Rd, wantRem)
}

// callDivmod emits the runtime call and the result writeback. The quotient
// returns in T7, the remainder in slot rtArgB.
func (t *translator) callDivmod(rd rv32.Reg, wantRem bool) {
	t.callDivmodMode(rd, wantRem, false)
}

// callDivmodMode additionally supports floor rounding: arithmetic right
// shifts are floor division while RISC-V DIV truncates toward zero, so the
// shift path corrects the quotient when the remainder is negative (the
// divisor, a power of two, is always positive).
func (t *translator) callDivmodMode(rd rv32.Reg, wantRem, floor bool) {
	t.needDiv = true
	t.jalTo(scratchB, "__t9_divmod")
	if floor {
		t.mem(isa.LOAD, scratchB, regZero, rtArgB)
		t.r2(isa.COMP, scratchB, regZero)
		t.emit(asm.Stmt{Op: asm.Op(isa.BNE), Tb: scratchB, B: -1, Imm: 2})
		t.imm(isa.ADDI, scratchA, -1)
	}
	src := scratchA // quotient lands in T7 == scratchA
	if wantRem {
		t.mem(isa.LOAD, scratchA, regZero, rtArgB)
	}
	d := t.writeTarget(rd, src)
	if d != src {
		t.r2(isa.MV, d, src)
	}
	t.writeBack(rd, d)
}

// mulViaRuntime maps MUL as a call to the shared trit-serial multiplier.
func (t *translator) mulViaRuntime(in rv32.Inst) {
	if in.Rd == 0 {
		return
	}
	b := t.read(in.Rs2, scratchB)
	t.mem(isa.STORE, b, regZero, rtArgB)
	a := t.read(in.Rs1, scratchA)
	if a != scratchA {
		t.r2(isa.MV, scratchA, a)
	}
	t.needMul = true
	t.jalTo(scratchB, "__t9_mul")
	d := t.writeTarget(in.Rd, scratchA)
	if d != scratchA {
		t.r2(isa.MV, d, scratchA)
	}
	t.writeBack(in.Rd, d)
}

// mulInline expands MUL into an in-line early-exit trit-serial shift-add
// loop (the mapping-quality optimisation; ~25 cycles for single-trit
// multipliers instead of a call).
func (t *translator) mulInline(idx int, in rv32.Inst) {
	if in.Rd == 0 {
		return
	}
	b := t.read(in.Rs2, scratchB)
	if b != scratchB {
		t.r2(isa.MV, scratchB, b)
	}
	a := t.read(in.Rs1, scratchA)
	if a != scratchA {
		t.r2(isa.MV, scratchA, a)
	}
	lbl := func(s string) string { return fmt.Sprintf("M%d_%s", idx, s) }
	// Borrow T5 (accumulator) and T6 (temp); save to runtime slots.
	t.mem(isa.STORE, isa.Reg(5), regZero, rtSaveT5)
	t.mem(isa.STORE, isa.Reg(6), regZero, rtSaveT6)
	t.ldi(isa.Reg(5), 0)
	t.label(lbl("loop"))
	t.r2(isa.MV, isa.Reg(6), scratchB)
	t.r2(isa.COMP, isa.Reg(6), regZero)
	t.branch(isa.BEQ, isa.Reg(6), ternary.Zero, lbl("done")) // multiplier exhausted
	// Extract the least significant trit of B.
	t.r2(isa.MV, isa.Reg(6), scratchB)
	t.imm(isa.SRI, scratchB, 1)
	t.mem(isa.STORE, scratchB, regZero, rtSaveT3) // stash B>>1
	t.imm(isa.SLI, scratchB, 1)
	t.r2(isa.SUB, isa.Reg(6), scratchB) // LST(B)
	t.mem(isa.LOAD, scratchB, regZero, rtSaveT3)
	t.branch(isa.BNE, isa.Reg(6), ternary.Pos, lbl("n1"))
	t.r2(isa.ADD, isa.Reg(5), scratchA)
	t.jalTo(isa.Reg(6), lbl("next"))
	t.label(lbl("n1"))
	t.branch(isa.BNE, isa.Reg(6), ternary.Neg, lbl("next"))
	t.r2(isa.SUB, isa.Reg(5), scratchA)
	t.label(lbl("next"))
	t.imm(isa.SLI, scratchA, 1) // A *= 3
	t.jalTo(isa.Reg(6), lbl("loop"))
	t.label(lbl("done"))
	t.r2(isa.MV, scratchA, isa.Reg(5))
	t.mem(isa.LOAD, isa.Reg(5), regZero, rtSaveT5)
	t.mem(isa.LOAD, isa.Reg(6), regZero, rtSaveT6)
	d := t.writeTarget(in.Rd, scratchA)
	if d != scratchA {
		t.r2(isa.MV, d, scratchA)
	}
	t.writeBack(in.Rd, d)
}

// shiftVar maps variable shifts with an in-line loop: left shifts double
// rs1 rs2-times; right shifts build 2^rs2 and divide.
func (t *translator) shiftVar(idx int, in rv32.Inst, left bool) {
	if in.Rd == 0 {
		return
	}
	b := t.read(in.Rs2, scratchB)
	if b != scratchB {
		t.r2(isa.MV, scratchB, b)
	}
	a := t.read(in.Rs1, scratchA)
	if a != scratchA {
		t.r2(isa.MV, scratchA, a)
	}
	lbl := func(s string) string { return fmt.Sprintf("S%d_%s", idx, s) }
	t.mem(isa.STORE, isa.Reg(6), regZero, rtSaveT6)
	if !left {
		// Park the operand; build P = 2^k in scratchA.
		t.mem(isa.STORE, scratchA, regZero, rtSaveT5)
		t.ldi(scratchA, 1)
	}
	t.label(lbl("loop"))
	t.r2(isa.MV, isa.Reg(6), scratchB)
	t.r2(isa.COMP, isa.Reg(6), regZero)
	t.branch(isa.BNE, isa.Reg(6), ternary.Pos, lbl("done")) // k <= 0 → stop
	t.r2(isa.ADD, scratchA, scratchA)                       // double
	t.imm(isa.ADDI, scratchB, -1)
	t.jalTo(isa.Reg(6), lbl("loop"))
	t.label(lbl("done"))
	t.mem(isa.LOAD, isa.Reg(6), regZero, rtSaveT6)
	if !left {
		// scratchA = 2^k → divisor; operand back to scratchA.
		t.mem(isa.STORE, scratchA, regZero, rtArgB)
		t.mem(isa.LOAD, scratchA, regZero, rtSaveT5)
		t.callDivmodMode(in.Rd, false, true)
		return
	}
	d := t.writeTarget(in.Rd, scratchA)
	if d != scratchA {
		t.r2(isa.MV, d, scratchA)
	}
	t.writeBack(in.Rd, d)
}
