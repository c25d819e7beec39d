package xlate

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// The ternary runtime library: primitive sequences shared by call sites,
// appended after the translated program (they are only reachable by JAL).
//
// Calling convention:
//
//	argument A        T7
//	argument B        TDM[rtArgB]
//	link              T8 (JAL T8, routine; return JALR T8, T8, 0)
//	result            T7 (divmod additionally leaves the remainder
//	                  in TDM[rtArgB])
//	preserved         T0..T6 (runtime saves what it borrows)
//	clobbered         T7, T8, runtime slots
func (t *translator) appendRuntime() {
	if t.needMul {
		t.emitMulRoutine()
	}
	if t.needDiv {
		t.emitDivmodRoutine()
	}
	// Flush a dangling label (possible when the program ends in a
	// branch to its own end and no runtime was needed).
	if t.pendLabel != "" {
		t.emit(asm.Stmt{Op: asm.HALT})
	}
}

// reg aliases for readability.
const (
	rT3 = isa.Reg(3)
	rT4 = isa.Reg(4)
	rT5 = isa.Reg(5)
	rT6 = isa.Reg(6)
)

// emitMulRoutine emits __t9_mul: the trit-serial shift-add multiplier of
// §II-B ([10]) with early exit when the remaining multiplier is zero.
// A×B with A in T7, B in TDM[rtArgB]; product returned in T7.
func (t *translator) emitMulRoutine() {
	t.label("__t9_mul")
	t.mem(isa.STORE, rT5, regZero, rtSaveT5) // borrow T5 (ACC)
	t.mem(isa.STORE, rT6, regZero, rtSaveT6) // borrow T6 (tmp)
	t.mem(isa.STORE, rT4, regZero, rtSaveT4) // borrow T4 (B)
	t.mem(isa.LOAD, rT4, regZero, rtArgB)
	t.ldi(rT5, 0)
	t.label("__mu_loop")
	t.r2(isa.MV, rT6, rT4)
	t.r2(isa.COMP, rT6, regZero)
	t.branch(isa.BEQ, rT6, ternary.Zero, "__mu_done")
	// LST(B) = B − 3·(B≫1).
	t.r2(isa.MV, rT6, rT4)
	t.imm(isa.SRI, rT4, 1)
	t.mem(isa.STORE, rT4, regZero, rtSaveT3)
	t.imm(isa.SLI, rT4, 1)
	t.r2(isa.SUB, rT6, rT4)
	t.mem(isa.LOAD, rT4, regZero, rtSaveT3)
	t.branch(isa.BNE, rT6, ternary.Pos, "__mu_n1")
	t.r2(isa.ADD, rT5, scratchA)
	t.jalTo(rT6, "__mu_next")
	t.label("__mu_n1")
	t.branch(isa.BNE, rT6, ternary.Neg, "__mu_next")
	t.r2(isa.SUB, rT5, scratchA)
	t.label("__mu_next")
	t.imm(isa.SLI, scratchA, 1)
	t.jalTo(rT6, "__mu_loop")
	t.label("__mu_done")
	t.r2(isa.MV, scratchA, rT5)
	t.mem(isa.LOAD, rT5, regZero, rtSaveT5)
	t.mem(isa.LOAD, rT6, regZero, rtSaveT6)
	t.mem(isa.LOAD, rT4, regZero, rtSaveT4)
	t.mem(isa.JALR, scratchB, scratchB, 0)
}

// emitDivmodRoutine emits __t9_divmod: signed division with RISC-V
// truncate-toward-zero semantics, computed as unsigned base-3 long
// division on magnitudes (digits 0..2 via up-to-two subtracts per
// position) with sign fixup. A in T7, B in TDM[rtArgB]; quotient in T7,
// remainder in TDM[rtArgB]. Division by zero returns Q=−1, R=A (the
// RISC-V convention, adapted to the 9-trit range).
func (t *translator) emitDivmodRoutine() {
	t.label("__t9_divmod")
	t.mem(isa.STORE, rT3, regZero, rtSaveT3)
	t.mem(isa.STORE, rT4, regZero, rtSaveT4)
	t.mem(isa.STORE, rT5, regZero, rtSaveT5)
	t.mem(isa.STORE, rT6, regZero, rtSaveT6)
	// |A| and sign(A) → rtSignA.
	t.ldi(rT4, 1)
	t.r2(isa.MV, rT5, scratchA)
	t.r2(isa.MV, rT3, scratchA)
	t.r2(isa.COMP, rT3, regZero)
	t.branch(isa.BNE, rT3, ternary.Neg, "__dv_apos")
	t.r2(isa.STI, rT5, rT5)
	t.ldi(rT4, -1)
	t.label("__dv_apos")
	t.mem(isa.STORE, rT4, regZero, rtSignA)
	// |B|, zero check, and sign(Q) = sign(A)·sign(B) → rtSignQ.
	t.mem(isa.LOAD, rT6, regZero, rtArgB)
	t.r2(isa.MV, rT3, rT6)
	t.r2(isa.COMP, rT3, regZero)
	// The zero-divisor handler is beyond conditional-branch reach
	// (±40); jump via a register that is dead here (T4) — the
	// assembler's generic relaxation would clobber T8, the live link.
	t.emit(asm.Stmt{Op: asm.Op(isa.BNE), Tb: rT3, B: ternary.Zero, Imm: 2})
	t.jalTo(rT4, "__dv_zero")
	t.branch(isa.BNE, rT3, ternary.Neg, "__dv_bpos")
	t.r2(isa.STI, rT6, rT6)
	t.r2(isa.STI, rT4, rT4)
	t.label("__dv_bpos")
	t.mem(isa.STORE, rT4, regZero, rtSignQ)
	t.ldi(rT3, 0)      // Q
	t.ldi(scratchA, 0) // shift count
	// Scale the divisor up by 3 while 3·div ≤ |A| (bounded to avoid
	// 9-trit overflow: stop once div > 3280).
	t.label("__dv_scale")
	t.ldi(rT4, 3280)
	t.r2(isa.COMP, rT4, rT6)
	t.branch(isa.BEQ, rT4, ternary.Neg, "__dv_loop")
	t.r2(isa.MV, rT4, rT6)
	t.imm(isa.SLI, rT4, 1) // 3·div
	t.r2(isa.COMP, rT4, rT5)
	t.branch(isa.BEQ, rT4, ternary.Pos, "__dv_loop") // 3·div > |A|
	t.imm(isa.SLI, rT6, 1)
	t.imm(isa.ADDI, scratchA, 1)
	t.jalTo(rT4, "__dv_scale")
	// Long division: at each position try up to two subtracts.
	t.label("__dv_loop")
	t.imm(isa.SLI, rT3, 1) // Q *= 3
	t.r2(isa.MV, rT4, rT5)
	t.r2(isa.COMP, rT4, rT6)
	t.branch(isa.BEQ, rT4, ternary.Neg, "__dv_skip")
	t.r2(isa.SUB, rT5, rT6)
	t.imm(isa.ADDI, rT3, 1)
	t.r2(isa.MV, rT4, rT5)
	t.r2(isa.COMP, rT4, rT6)
	t.branch(isa.BEQ, rT4, ternary.Neg, "__dv_skip")
	t.r2(isa.SUB, rT5, rT6)
	t.imm(isa.ADDI, rT3, 1)
	t.label("__dv_skip")
	t.imm(isa.SRI, rT6, 1) // div /= 3 (exact: scaled by tripling)
	t.imm(isa.ADDI, scratchA, -1)
	t.r2(isa.MV, rT4, scratchA)
	t.r2(isa.COMP, rT4, regZero)
	t.branch(isa.BNE, rT4, ternary.Neg, "__dv_loop")
	// Sign fixup.
	t.mem(isa.LOAD, rT4, regZero, rtSignQ)
	t.branch(isa.BNE, rT4, ternary.Neg, "__dv_qpos")
	t.r2(isa.STI, rT3, rT3)
	t.label("__dv_qpos")
	t.mem(isa.LOAD, rT4, regZero, rtSignA)
	t.branch(isa.BNE, rT4, ternary.Neg, "__dv_rpos")
	t.r2(isa.STI, rT5, rT5)
	t.label("__dv_rpos")
	t.r2(isa.MV, scratchA, rT3)            // quotient
	t.mem(isa.STORE, rT5, regZero, rtArgB) // remainder
	t.jalTo(rT4, "__dv_ret")
	// Division by zero: Q = −1, R = A.
	t.label("__dv_zero")
	t.mem(isa.LOAD, rT4, regZero, rtSignA)
	t.branch(isa.BNE, rT4, ternary.Neg, "__dv_zpos")
	t.r2(isa.STI, rT5, rT5) // restore original (negative) A
	t.label("__dv_zpos")
	t.mem(isa.STORE, rT5, regZero, rtArgB)
	t.ldi(scratchA, -1)
	t.label("__dv_ret")
	t.mem(isa.LOAD, rT3, regZero, rtSaveT3)
	t.mem(isa.LOAD, rT4, regZero, rtSaveT4)
	t.mem(isa.LOAD, rT5, regZero, rtSaveT5)
	t.mem(isa.LOAD, rT6, regZero, rtSaveT6)
	t.mem(isa.JALR, scratchB, scratchB, 0)
}
