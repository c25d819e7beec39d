package asm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Property: any valid instruction stream survives the
// render → assemble → encode → disassemble → reassemble cycle intact, and
// the decoded stream is exactly the decode of the encoded image — the
// contract the simulator's fetch relies on (see Program.Text).
func TestAssembleDisassembleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		// Build a random but label-free instruction stream (numeric
		// branch offsets kept in range and pointing anywhere — the
		// assembler does not execute them).
		insts := make([]isa.Inst, rng.Intn(40)+5)
		for i := range insts {
			insts[i] = instOf(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
				byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		checkRoundTrip(t, insts)
	}
}

// FuzzAssembleDisassemble is TestAssembleDisassembleProperty over
// arbitrary inputs: every five bytes become one Table I instruction
// (opcode, Ta, Tb, branch trit, immediate), each field reduced into its
// range. The seed corpus is in testdata/fuzz/FuzzAssembleDisassemble.
func FuzzAssembleDisassemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var insts []isa.Inst
		for ; len(data) >= 5 && len(insts) < 256; data = data[5:] {
			insts = append(insts, instOf(data[0], data[1], data[2], data[3], data[4]))
		}
		if len(insts) == 0 {
			t.Skip("fewer than five bytes")
		}
		checkRoundTrip(t, insts)
	})
}

// instOf reduces five bytes to an instruction whose every field is in
// range for its opcode.
func instOf(op, ta, tb, b, imm byte) isa.Inst {
	in := isa.Inst{Op: isa.Op(int(op) % isa.NumOps)}
	if in.Op.HasTa() {
		in.Ta = isa.Reg(int(ta) % isa.NumRegs)
	}
	if in.Op.HasTb() {
		in.Tb = isa.Reg(int(tb) % isa.NumRegs)
	}
	if k := in.Op.ImmTrits(); k > 0 {
		max := ternary.MaxForTrits(k)
		in.Imm = int(imm)%(2*max+1) - max
	}
	if in.Op.IsBranch() {
		in.B = ternary.Trit(int(b)%3 - 1)
	}
	return in
}

// checkRoundTrip renders insts as source and checks that it assembles,
// that Text is the decode of Words, and that disassembling and
// reassembling gives the same Words.
func checkRoundTrip(t *testing.T, insts []isa.Inst) {
	t.Helper()
	var src strings.Builder
	for _, in := range insts {
		src.WriteString(in.String())
		src.WriteByte('\n')
	}
	p1, err := Assemble(src.String())
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src.String())
	}
	for i, w := range p1.Words {
		if in, err := isa.DecodePacked(ternary.Pack(w)); err != nil || in != p1.Text[i] {
			t.Fatalf("Text[%d] = %v, but Words[%d] decodes as %v (%v)\n%s",
				i, p1.Text[i], i, in, err, src.String())
		}
	}
	var back strings.Builder
	for _, l := range strings.Split(strings.TrimSpace(Disassemble(p1.Words)), "\n") {
		f := strings.Fields(l)
		back.WriteString(strings.Join(f[2:], " ") + "\n")
	}
	p2, err := Assemble(back.String())
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, back.String())
	}
	if len(p1.Words) != len(p2.Words) {
		t.Fatalf("length drift %d -> %d\n%s", len(p1.Words), len(p2.Words), src.String())
	}
	for i := range p1.Words {
		if p1.Words[i] != p2.Words[i] {
			t.Fatalf("word %d drift\n%s", i, src.String())
		}
	}
}

// Property: label-based branches always land exactly on their targets, at
// any distance (exercising all three relaxation levels).
func TestBranchTargetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, gap := range []int{1, 5, 39, 40, 41, 80, 120, 121, 122, 200, 400} {
		var src strings.Builder
		src.WriteString("\tBEQ T1, 0, target\n")
		for i := 0; i < gap; i++ {
			// Filler that never branches.
			fmt.Fprintf(&src, "\tADDI T%d, %d\n", rng.Intn(7)+1, rng.Intn(3))
		}
		src.WriteString("target:\tHALT\n")
		p, err := Assemble(src.String())
		if err != nil {
			t.Fatalf("gap %d: %v", gap, err)
		}
		target := p.Symbols["target"]
		// Simulate just the branch resolution: walk the first emitted
		// instruction group manually.
		in := p.Text[0]
		switch in.Op {
		case isa.BEQ:
			if 0+in.Imm != target {
				t.Errorf("gap %d: short branch lands at %d, want %d", gap, in.Imm, target)
			}
		case isa.BNE: // inverted forms
			// Level 1: BNE +2; JAL off. Level 2: BNE +4; LUI; LI; JALR.
			next := p.Text[1]
			if next.Op == isa.JAL {
				if 1+next.Imm != target {
					t.Errorf("gap %d: near branch lands at %d, want %d", gap, 1+next.Imm, target)
				}
			} else if next.Op == isa.LUI {
				w := ternary.Word{}.SetField(5, 8, next.Imm)
				low := ternary.Word{}.SetField(0, 4, p.Text[2].Imm)
				for k := 0; k < 5; k++ {
					w[k] = low[k]
				}
				if w.Int() != target {
					t.Errorf("gap %d: far branch lands at %d, want %d", gap, w.Int(), target)
				}
			} else {
				t.Errorf("gap %d: unexpected relaxation shape %v", gap, next)
			}
		default:
			t.Errorf("gap %d: unexpected first op %v", gap, in)
		}
	}
}

// Property: program text cells equal 9 × instruction count for arbitrary
// programs (the Fig. 5 accounting).
func TestTextCellsProperty(t *testing.T) {
	for _, n := range []int{1, 7, 50, 333} {
		var src strings.Builder
		for i := 0; i < n; i++ {
			src.WriteString("NOP\n")
		}
		p, err := Assemble(src.String())
		if err != nil {
			t.Fatal(err)
		}
		if p.TextCells() != 9*n {
			t.Errorf("n=%d: cells %d, want %d", n, p.TextCells(), 9*n)
		}
	}
}

// FuzzBuildVsAssemble holds Build and Assemble to one code generator:
// every seven bytes become one statement (op, label, Ta, Tb, condition
// trit, immediate, target), and building the statements must give the
// same program, or fail the same way, as assembling their printed text.
// Names come from a pool of six shared by labels, .equ constants and
// targets, so duplicates, forward references and label/constant clashes
// all occur; .space and .org put targets at every relaxation distance.
// The seed corpus is in testdata/fuzz/FuzzBuildVsAssemble.
func FuzzBuildVsAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var stmts []Stmt
		for ; len(data) >= 7 && len(stmts) < 64; data = data[7:] {
			stmts = append(stmts, stmtOf(data[:7]))
		}
		var src []byte
		for _, st := range stmts {
			src = AppendStmt(src, st)
		}
		built, berr := Build(stmts)
		assembled, aerr := Assemble(string(src))
		if (berr == nil) != (aerr == nil) {
			t.Fatalf("Build error %v, Assemble error %v\n%s", berr, aerr, src)
		}
		if berr == nil && !reflect.DeepEqual(built, assembled) {
			t.Fatalf("built and assembled programs differ\n%s", src)
		}
	})
}

var fuzzNames = [...]string{"a", "b", "loop", "end", "x1", "K"}

// stmtOf reduces seven bytes to a statement whose registers, condition
// trit and immediate are in range for its op, except that wide
// immediates of LDI, LDA and .word may exceed nine trits.
func stmtOf(d []byte) Stmt {
	st := Stmt{
		Op: Op(int(d[0]) % int(numOps)),
		Ta: isa.Reg(int(d[2]) % isa.NumRegs),
		Tb: isa.Reg(int(d[3]) % isa.NumRegs),
		B:  ternary.Trit(int(d[4])%3 - 1),
	}
	if d[1] < 96 {
		st.Label = fuzzNames[int(d[1])%len(fuzzNames)]
	}
	if op, ok := st.Op.Inst(); ok {
		if k := op.ImmTrits(); k > 0 {
			max := ternary.MaxForTrits(k)
			st.Imm = int(d[5])%(2*max+1) - max
		}
	} else {
		switch st.Op {
		case ORG, SPACE:
			st.Imm = 2 * int(d[5])
		default:
			st.Imm = (int(d[5]) - 128) * 77
		}
	}
	if d[6]%2 == 1 && st.Op != ORG && st.Op != SPACE {
		st.Target = fuzzNames[int(d[6]/2)%len(fuzzNames)]
	}
	return st
}
