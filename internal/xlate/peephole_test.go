package xlate

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// rl, il and ml build statements in short for peephole unit tests.
func rl(op isa.Op, ta, tb isa.Reg) asm.Stmt {
	return asm.Stmt{Op: asm.Op(op), Ta: ta, Tb: tb}
}

func il(op asm.Op, ta isa.Reg, imm int) asm.Stmt {
	return asm.Stmt{Op: op, Ta: ta, Imm: imm}
}

func ml(op isa.Op, ta, tb isa.Reg, imm int) asm.Stmt {
	return asm.Stmt{Op: asm.Op(op), Ta: ta, Tb: tb, Imm: imm}
}

func countOps(lines []asm.Stmt) int {
	n := 0
	for _, l := range lines {
		if l.Op != asm.LabelOnly {
			n++
		}
	}
	return n
}

func TestPeepholeIdentities(t *testing.T) {
	in := []asm.Stmt{
		rl(isa.MV, 1, 1),           // removed
		il(asm.Op(isa.ADDI), 2, 0), // removed
		il(asm.Op(isa.SLI), 3, 0),  // removed
		rl(isa.ADD, 4, 0),          // ADD x, T0: removed
		rl(isa.SUB, 5, 0),          // removed
		rl(isa.MV, 1, 2),           // kept
		il(asm.Op(isa.ADDI), 2, 1), // kept
		rl(isa.OR, 4, 0),           // OR with T0 is max(x,0) — MUST be kept
	}
	out, removed := peephole(in)
	if removed != 5 {
		t.Errorf("removed %d, want 5", removed)
	}
	if countOps(out) != 3 {
		t.Errorf("%d ops left, want 3: %v", countOps(out), out)
	}
	for _, l := range out {
		if l.Op == asm.Op(isa.OR) {
			return
		}
	}
	t.Error("OR x, T0 was wrongly removed (not an identity in balanced ternary)")
}

func TestPeepholeSpillReload(t *testing.T) {
	// STORE then immediate LOAD of the same slot → MV (or dropped).
	in := []asm.Stmt{
		ml(isa.STORE, 3, 0, -9),
		ml(isa.LOAD, 4, 0, -9),
	}
	out, _ := peephole(in)
	if countOps(out) != 2 || out[1].Op != asm.Op(isa.MV) || out[1].Ta != 4 || out[1].Tb != 3 {
		t.Errorf("reload not converted to MV: %v", out)
	}
	// Same register: reload dropped entirely.
	in = []asm.Stmt{
		ml(isa.STORE, 3, 0, -9),
		ml(isa.LOAD, 3, 0, -9),
	}
	out, _ = peephole(in)
	if countOps(out) != 1 {
		t.Errorf("same-register reload not dropped: %v", out)
	}
	// Different slot: untouched.
	in = []asm.Stmt{
		ml(isa.STORE, 3, 0, -9),
		ml(isa.LOAD, 3, 0, -8),
	}
	out, _ = peephole(in)
	if countOps(out) != 2 || out[1].Op != asm.Op(isa.LOAD) {
		t.Errorf("different-slot reload was touched: %v", out)
	}
}

func TestPeepholeSpillReloadLabelBarrier(t *testing.T) {
	// A label between store and reload blocks the rewrite (another path
	// may enter there).
	in := []asm.Stmt{
		ml(isa.STORE, 3, 0, -9),
		{Label: "L1", Op: asm.Op(isa.LOAD), Ta: 4, Tb: 0, Imm: -9},
	}
	out, removed := peephole(in)
	if removed != 0 || out[1].Op != asm.Op(isa.LOAD) {
		t.Errorf("labelled reload was rewritten: %v", out)
	}
}

func TestPeepholeDeadWrite(t *testing.T) {
	// LDI overwritten before any read → dropped.
	in := []asm.Stmt{
		il(asm.LDI, 7, 5),
		il(asm.LDI, 7, 9),
		rl(isa.MV, 1, 7),
	}
	out, removed := peephole(in)
	if removed != 1 || countOps(out) != 2 {
		t.Errorf("dead LDI not removed: %v", out)
	}
	// A read in between keeps it.
	in = []asm.Stmt{
		il(asm.LDI, 7, 5),
		rl(isa.ADD, 1, 7),
		il(asm.LDI, 7, 9),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Errorf("live LDI removed")
	}
	// Control flow in between keeps it.
	in = []asm.Stmt{
		il(asm.LDI, 7, 5),
		{Op: asm.Op(isa.JAL), Ta: 8, Target: "x"},
		il(asm.LDI, 7, 9),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Errorf("LDI across control flow removed")
	}
}

func TestPeepholeDuplicateLDI(t *testing.T) {
	in := []asm.Stmt{
		il(asm.LDI, 7, 100),
		rl(isa.ADD, 1, 7),
		il(asm.LDI, 7, 100), // same constant, no intervening write → dropped
		rl(isa.ADD, 2, 7),
	}
	out, removed := peephole(in)
	if removed != 1 || countOps(out) != 3 {
		t.Errorf("duplicate LDI not removed: %v", out)
	}
	// Different constant: kept.
	in = []asm.Stmt{
		il(asm.LDI, 7, 100),
		rl(isa.ADD, 1, 7),
		il(asm.LDI, 7, 101),
	}
	_, removed = peephole(in)
	if removed != 0 {
		t.Error("distinct LDI removed")
	}
}

func TestPeepholePreservesLabels(t *testing.T) {
	in := []asm.Stmt{
		{Label: "entry", Op: asm.Op(isa.MV), Ta: 1, Tb: 1}, // identity with label
		il(asm.Op(isa.ADDI), 1, 1),
	}
	out, _ := peephole(in)
	found := false
	for _, l := range out {
		if l.Label == "entry" {
			found = true
		}
	}
	if !found {
		t.Errorf("label lost during removal: %v", out)
	}
}

func TestPeepholeNeverTouchesPrologue(t *testing.T) {
	// The LDI T0, 0 prologue would look dead (T0 never rewritten...)
	// but must survive: every spill slot and zero-compare uses it.
	in := []asm.Stmt{
		il(asm.LDI, 0, 0),
		il(asm.LDI, 1, 5),
	}
	_, removed := peephole(in)
	if removed != 0 {
		t.Error("prologue LDI T0 removed")
	}
}

func TestLineMetadata(t *testing.T) {
	// Read/write sets drive every rule; pin them for each op family.
	if !writes(rl(isa.COMP, 1, 2), 1) {
		t.Error("COMP writes Ta")
	}
	if writes(ml(isa.STORE, 1, 2, 0), 1) || writes(ml(isa.STORE, 1, 2, 0), 2) {
		t.Error("STORE writes no register")
	}
	if !writes(ml(isa.LOAD, 1, 2, 0), 1) {
		t.Error("LOAD writes Ta")
	}
	if !reads(ml(isa.STORE, 1, 2, 0), 1) || !reads(ml(isa.STORE, 1, 2, 0), 2) {
		t.Error("STORE reads Ta and Tb")
	}
	if !writes(il(asm.LDI, 1, 5), 1) || reads(il(asm.LDI, 1, 5), 1) {
		t.Error("LDI writes Ta and reads nothing")
	}
	if !isBarrier(asm.Stmt{Op: asm.HALT}) || isBarrier(rl(isa.ADD, 1, 2)) {
		t.Error("control classification wrong")
	}
}
