package xlate

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// The redundancy-checking phase of Fig. 2: the mapping and conversion
// phases emit conservatively (copies for two-address form, spill traffic,
// rebuilt constants); this pass deletes the duplicated operations. Branch
// targets survive deletion because statements carry them symbolically —
// the ART-9 assembler recomputes every offset afterwards, which is the
// "re-calculates the branch target addresses" step of §III-A. Operand
// roles come from isa.Op; of the pseudos, LDI and LDA write Ta and read
// nothing, and HALT transfers control.

// writes reports whether l writes register r.
func writes(l asm.Stmt, r isa.Reg) bool {
	if op, ok := l.Op.Inst(); ok {
		return op.WritesReg() && l.Ta == r
	}
	return (l.Op == asm.LDI || l.Op == asm.LDA) && l.Ta == r
}

// reads reports whether l reads register r.
func reads(l asm.Stmt, r isa.Reg) bool {
	op, ok := l.Op.Inst()
	return ok && (op.ReadsTa() && l.Ta == r || op.ReadsTb() && l.Tb == r)
}

// isBarrier reports whether l ends a straight-line run: it carries a
// label, which another path may enter by, or it can transfer control.
func isBarrier(l asm.Stmt) bool {
	op, ok := l.Op.Inst()
	return l.Label != "" || l.Op == asm.HALT || ok && op.Category() == isa.CatB
}

// isPureWrite reports whether a line only writes its Ta (safe to delete
// when the value is dead).
func isPureWrite(l asm.Stmt) bool {
	switch l.Op {
	case asm.LDI, asm.LDA, asm.Op(isa.LUI), asm.Op(isa.MV):
		return true
	}
	return false
}

// isIdentity reports whether a line provably changes nothing: MV x,x;
// ADDI/SLI/SRI x,0; ADD/SUB x,T0 (T0 holds zero by ABI and is never
// rewritten after the prologue).
func isIdentity(l asm.Stmt) bool {
	switch l.Op {
	case asm.Op(isa.MV):
		return l.Ta == l.Tb
	case asm.Op(isa.ADDI), asm.Op(isa.SLI), asm.Op(isa.SRI):
		return l.Imm == 0
	case asm.Op(isa.ADD), asm.Op(isa.SUB):
		return l.Tb == regZero
	}
	return false
}

// isBlank reports whether a line is a placeholder left by a deletion.
func isBlank(l asm.Stmt) bool { return l.Op == asm.LabelOnly && l.Label == "" }

// peephole runs the redundancy checker to a fixed point, returning the
// cleaned lines and the number of instructions removed.
func peephole(lines []asm.Stmt) ([]asm.Stmt, int) {
	removed := 0
	for {
		n := 0
		lines, n = peepholeOnce(lines)
		removed += n
		if n == 0 {
			return lines, removed
		}
	}
}

func peepholeOnce(lines []asm.Stmt) ([]asm.Stmt, int) {
	removed := 0
	// drop turns line i into a label-only placeholder, preserving any
	// label bound to it.
	drop := func(i int) {
		lines[i] = asm.Stmt{Op: asm.LabelOnly, Label: lines[i].Label}
		removed++
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if l.Op == asm.LabelOnly {
			continue
		}
		// The prologue LDI T0, 0 establishes the ABI zero; never touch
		// writes to T0 (there is exactly one).
		if l.Op == asm.LDI && l.Ta == regZero {
			continue
		}

		// Rule 1/2: provable identities.
		if isIdentity(l) {
			drop(i)
			continue
		}

		// Rule 3: spill store immediately reloaded.
		if l.Op == asm.Op(isa.STORE) && l.Tb == regZero {
			if j := nextOp(lines, i); j >= 0 && lines[j].Label == "" {
				n := lines[j]
				if n.Op == asm.Op(isa.LOAD) && n.Tb == regZero && n.Imm == l.Imm {
					if n.Ta == l.Ta {
						drop(j)
					} else {
						lines[j] = asm.Stmt{Op: asm.Op(isa.MV), Ta: n.Ta, Tb: l.Ta}
					}
					continue
				}
			}
		}

		// Rule 4: dead pure writes — the value is overwritten before
		// any read, with no barrier in between.
		if isPureWrite(l) && deadBefore(lines, i+1, l.Ta) {
			drop(i)
			continue
		}

		// Rule 5: duplicate constant load — an identical LDI with no
		// intervening write/barrier.
		if l.Op == asm.LDI {
			for j := i + 1; j < len(lines); j++ {
				n := lines[j]
				if isBlank(n) {
					continue
				}
				if isBarrier(n) {
					break
				}
				if writes(n, l.Ta) {
					if n.Op == asm.LDI && n.Imm == l.Imm {
						// Same value rebuilt: the second is redundant
						// only if nothing read-modified it, which the
						// write check guarantees.
						drop(j)
					}
					break
				}
			}
		}
	}
	// Compact the placeholders that carry no label, in place.
	out := lines[:0]
	for _, l := range lines {
		if !isBlank(l) {
			out = append(out, l)
		}
	}
	return out, removed
}

// nextOp returns the next index holding a real instruction, or −1.
func nextOp(lines []asm.Stmt, i int) int {
	for j := i + 1; j < len(lines); j++ {
		if lines[j].Op != asm.LabelOnly {
			return j
		}
		if lines[j].Label != "" {
			return -1 // label-only line is a barrier
		}
	}
	return -1
}

// deadBefore reports whether register r is overwritten before any read,
// label or control transfer from index i on.
func deadBefore(lines []asm.Stmt, i int, r isa.Reg) bool {
	for _, l := range lines[i:] {
		if isBarrier(l) || reads(l, r) {
			return false
		}
		if writes(l, r) {
			return true
		}
	}
	return false
}
