package asm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/ternary"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble failed: %v\nsource:\n%s", err, src)
	}
	return p
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		; every operand shape
		ADD T1, T2
		MV  T0, T3
		ADDI T4, -13
		SRI  T5, 2
		LUI  T6, 40
		LI   T7, -121
		JAL  T1, 5
		JALR T1, T2, 3
		LOAD T3, T4, -1
		STORE T3, T4, 1
		BEQ T2, 1, 4
		BNE T2, -1, -4
	`)
	want := []isa.Inst{
		{Op: isa.ADD, Ta: 1, Tb: 2},
		{Op: isa.MV, Ta: 0, Tb: 3},
		{Op: isa.ADDI, Ta: 4, Imm: -13},
		{Op: isa.SRI, Ta: 5, Imm: 2},
		{Op: isa.LUI, Ta: 6, Imm: 40},
		{Op: isa.LI, Ta: 7, Imm: -121},
		{Op: isa.JAL, Ta: 1, Imm: 5},
		{Op: isa.JALR, Ta: 1, Tb: 2, Imm: 3},
		{Op: isa.LOAD, Ta: 3, Tb: 4, Imm: -1},
		{Op: isa.STORE, Ta: 3, Tb: 4, Imm: 1},
		{Op: isa.BEQ, Tb: 2, B: ternary.Pos, Imm: 4},
		{Op: isa.BNE, Tb: 2, B: ternary.Neg, Imm: -4},
	}
	if len(p.Text) != len(want) {
		t.Fatalf("got %d instructions, want %d:\n%s", len(p.Text), len(want), Disassemble(p.Words))
	}
	for i, w := range want {
		if p.Text[i] != w {
			t.Errorf("inst %d = %v, want %v", i, p.Text[i], w)
		}
	}
	// Encoded words must decode back to the same instructions.
	for i, w := range p.Words {
		in, err := isa.Decode(w)
		if err != nil || in != p.Text[i] {
			t.Errorf("word %d decode mismatch: %v vs %v (%v)", i, in, p.Text[i], err)
		}
	}
}

func TestCommentsAndBlank(t *testing.T) {
	p := mustAssemble(t, `
		# hash comment
		// slash comment

		NOP ; trailing
	`)
	if len(p.Text) != 1 || !p.Text[0].IsNOP() {
		t.Fatalf("got %v", p.Text)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
	start:
		ADDI T1, 1
	loop:
		ADDI T1, -1
		BNE T1, 0, loop
		JAL T0, start
	done:
		HALT
	`)
	if p.Symbols["start"] != 0 || p.Symbols["loop"] != 1 || p.Symbols["done"] != 4 {
		t.Fatalf("symbols wrong: %v", p.Symbols)
	}
	// BNE at address 2 targeting 1 → offset −1.
	if in := p.Text[2]; in.Op != isa.BNE || in.Imm != -1 {
		t.Errorf("branch = %v, want BNE offset -1", in)
	}
	// JAL at address 3 targeting 0 → offset −3.
	if in := p.Text[3]; in.Op != isa.JAL || in.Imm != -3 {
		t.Errorf("jump = %v, want JAL offset -3", in)
	}
	// HALT is a jump-to-self.
	if in := p.Text[4]; in.Op != isa.JAL || in.Imm != 0 {
		t.Errorf("halt = %v, want JAL x, 0", in)
	}
}

func TestLDIExpansion(t *testing.T) {
	cases := []struct {
		val  int
		want int // instruction count
	}{
		{0, 1},     // LUI 0 alone (lo == 0)
		{243, 1},   // exactly hi·3^5
		{5, 2},     // LUI 0 + LI 5
		{9841, 2},  // max: LUI 40 + LI 121
		{-9841, 2}, // min
		{-121, 2},  //
		{486, 1},   // hi=2, lo=0
	}
	for _, c := range cases {
		p := mustAssemble(t, fmt.Sprintf("LDI T3, %d", c.val))
		if len(p.Text) != c.want {
			t.Errorf("LDI %d expanded to %d instructions, want %d: %v", c.val, len(p.Text), c.want, p.Text)
			continue
		}
		// Verify the expansion actually builds the constant:
		// LUI sets {imm, 00000}; LI merges low 5 trits.
		w := ternary.Word{}
		for _, in := range p.Text {
			switch in.Op {
			case isa.LUI:
				w = ternary.Word{}.SetField(5, 8, in.Imm)
			case isa.LI:
				low := ternary.Word{}.SetField(0, 4, in.Imm)
				for k := 0; k < 5; k++ {
					w[k] = low[k]
				}
			}
		}
		if w.Int() != c.val {
			t.Errorf("LDI %d builds %d", c.val, w.Int())
		}
	}
}

func TestEquAndTernaryLiterals(t *testing.T) {
	p := mustAssemble(t, `
		.equ K, 7
		.equ NEGK, -7
		ADDI T1, K
		ADDI T1, NEGK
		ADDI T2, 0t1T   ; = 2
		ADDI T2, -0t1T  ; = -2
	`)
	imms := []int{7, -7, 2, -2}
	for i, im := range imms {
		if p.Text[i].Imm != im {
			t.Errorf("inst %d imm = %d, want %d", i, p.Text[i].Imm, im)
		}
	}
}

// TestForwardReferences pins what a name may stand for before it is
// declared: a .equ constant in an immediate, an LDI and a condition
// trit, and a label in an LDA, a memory offset, a branch and a .word.
func TestForwardReferences(t *testing.T) {
	p := mustAssemble(t, `
		ADDI T1, K
		LDI T2, BIG
		LDA T3, tbl
		BEQ T4, P, end
		LOAD T5, T0, tbl
	end:	HALT
		.data
	tbl:	.word end, K
		.equ K, 5
		.equ BIG, 1000
		.equ P, -1
	`)
	want := []isa.Inst{
		{Op: isa.ADDI, Ta: 1, Imm: 5},
		{Op: isa.LUI, Ta: 2, Imm: 4}, {Op: isa.LI, Ta: 2, Imm: 28}, // 4·243 + 28
		{Op: isa.LUI, Ta: 3}, {Op: isa.LI, Ta: 3},
		{Op: isa.BEQ, Tb: 4, B: ternary.Neg, Imm: 2},
		{Op: isa.LOAD, Ta: 5},
		{Op: isa.JAL, Ta: Scratch},
	}
	if len(p.Text) != len(want) {
		t.Fatalf("got %d instructions, want %d: %v", len(p.Text), len(want), p.Text)
	}
	for i, w := range want {
		if p.Text[i] != w {
			t.Errorf("inst %d = %v, want %v", i, p.Text[i], w)
		}
	}
	if p.Data[0].Int() != 7 || p.Data[1].Int() != 5 {
		t.Errorf("data = %v, want end (7) then K (5)", p.Data)
	}
}

func TestDataSection(t *testing.T) {
	p := mustAssemble(t, `
		.data
		.org 5
	vec:
		.word 1, -2, 3
		.space 2
	after:
		.word 0t111
		.text
		LDA T1, vec
		LOAD T2, T1, 0
		HALT
	`)
	if p.Symbols["vec"] != 5 || p.Symbols["after"] != 10 {
		t.Fatalf("data symbols wrong: %v", p.Symbols)
	}
	wantData := map[int]int{5: 1, 6: -2, 7: 3, 10: 13}
	for a, v := range wantData {
		if got := p.Data[a].Int(); got != v {
			t.Errorf("data[%d] = %d, want %d", a, got, v)
		}
	}
	// LDA is always two instructions.
	if p.Text[0].Op != isa.LUI || p.Text[1].Op != isa.LI {
		t.Errorf("LDA expansion = %v %v", p.Text[0], p.Text[1])
	}
}

func TestOrgInText(t *testing.T) {
	p := mustAssemble(t, `
		NOP
		.org 4
	entry:
		ADDI T1, 1
	`)
	if len(p.Text) != 5 {
		t.Fatalf("text length %d, want 5", len(p.Text))
	}
	for i := 1; i < 4; i++ {
		if !p.Text[i].IsNOP() {
			t.Errorf("filler at %d is %v, not NOP", i, p.Text[i])
		}
	}
	if p.Symbols["entry"] != 4 {
		t.Errorf("entry = %d, want 4", p.Symbols["entry"])
	}
}

func TestBranchRelaxationNear(t *testing.T) {
	// Distance ~60: beyond imm4 (±40), within JAL's ±121.
	var b strings.Builder
	b.WriteString("BEQ T1, 0, far\n")
	for i := 0; i < 60; i++ {
		b.WriteString("NOP\n")
	}
	b.WriteString("far: HALT\n")
	p := mustAssemble(t, b.String())
	// Expansion: BNE +2; JAL scratch, off.
	if p.Text[0].Op != isa.BNE || p.Text[0].Imm != 2 {
		t.Fatalf("inverted branch = %v", p.Text[0])
	}
	if p.Text[1].Op != isa.JAL {
		t.Fatalf("relaxed jump = %v", p.Text[1])
	}
	target := p.Symbols["far"]
	if got := 1 + p.Text[1].Imm; got != target {
		t.Errorf("relaxed jump reaches %d, want %d", got, target)
	}
}

func TestBranchRelaxationFar(t *testing.T) {
	// Distance ~300: beyond JAL too; needs the absolute LDA+JALR form.
	var b strings.Builder
	b.WriteString("BNE T1, 1, far\n")
	for i := 0; i < 300; i++ {
		b.WriteString("NOP\n")
	}
	b.WriteString("far: HALT\n")
	p := mustAssemble(t, b.String())
	if p.Text[0].Op != isa.BEQ || p.Text[0].Imm != 4 {
		t.Fatalf("inverted branch = %v", p.Text[0])
	}
	if p.Text[1].Op != isa.LUI || p.Text[2].Op != isa.LI || p.Text[3].Op != isa.JALR {
		t.Fatalf("far sequence = %v %v %v", p.Text[1], p.Text[2], p.Text[3])
	}
	// The far sequence goes through Scratch, the register the
	// translator's ABI leaves to relaxation.
	if p.Text[1].Ta != Scratch || p.Text[3].Tb != Scratch {
		t.Errorf("far sequence does not use T8: %v %v", p.Text[1], p.Text[3])
	}
	// The LUI/LI pair must build the absolute target address.
	w := ternary.Word{}.SetField(5, 8, p.Text[1].Imm)
	low := ternary.Word{}.SetField(0, 4, p.Text[2].Imm)
	for k := 0; k < 5; k++ {
		w[k] = low[k]
	}
	if w.Int() != p.Symbols["far"] {
		t.Errorf("far target builds %d, want %d", w.Int(), p.Symbols["far"])
	}
}

func TestFarJAL(t *testing.T) {
	var b strings.Builder
	b.WriteString("JAL T1, far\n")
	for i := 0; i < 200; i++ {
		b.WriteString("NOP\n")
	}
	b.WriteString("far: HALT\n")
	p := mustAssemble(t, b.String())
	if p.Text[0].Op != isa.LUI || p.Text[1].Op != isa.LI || p.Text[2].Op != isa.JALR {
		t.Fatalf("far JAL = %v %v %v", p.Text[0], p.Text[1], p.Text[2])
	}
	if p.Text[2].Ta != 1 {
		t.Errorf("far JAL link register = %v, want T1", p.Text[2].Ta)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"FOO T1, T2",           // unknown mnemonic
		"ADD T1",               // missing operand
		"ADD T1, T2, T3",       // extra operand
		"ADDI T1, 99",          // imm out of range
		"ADDI T9, 1",           // bad register
		"BEQ T1, 2, 0",         // bad condition trit
		"BEQ T1, 0, nowhere",   // undefined label
		"JAL T0, 400",          // numeric offset out of range
		".word 1",              // .word in .text
		".org 5\n.org 2",       // backwards org
		".equ X, 1\n.equ X, 2", // duplicate equ
		"x: NOP\nx: NOP",       // duplicate label
		"LDI T1, 999999",       // constant too wide
		".bogus 3",             // unknown directive
		"BEQ T1, 0, 41",        // numeric branch out of range
		// One namespace: a label and a .equ constant of the same name.
		".equ N, 5\nN: LDI T1, N\nend: HALT\nJAL T2, end",
		"N: NOP\n.equ N, 5",
		"x:\nx: NOP",                       // duplicate label at one address
		".data\nx: .word 1\n.text\nx: NOP", // data and text label at one address
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		ADDI T1, 5
		ADD T1, T2
		STORE T1, T0, 3
		BEQ T1, 0, 2
		HALT
	`
	p := mustAssemble(t, src)
	dis := Disassemble(p.Words)
	// Every mnemonic should appear in the disassembly.
	for _, m := range []string{"ADDI", "ADD", "STORE", "BEQ", "JAL"} {
		if !strings.Contains(dis, m) {
			t.Errorf("disassembly missing %s:\n%s", m, dis)
		}
	}
	// Reassembling the disassembly of straight-line code (minus the
	// address column) must reproduce the same words.
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimSpace(dis), "\n") {
		f := strings.Fields(l) // "addr:", "word", mnemonic, operands...
		b.WriteString(strings.Join(f[2:], " ") + "\n")
	}
	p2 := mustAssemble(t, b.String())
	if len(p2.Words) != len(p.Words) {
		t.Fatalf("reassembly length %d vs %d", len(p2.Words), len(p.Words))
	}
	for i := range p.Words {
		if p.Words[i] != p2.Words[i] {
			t.Errorf("word %d differs after reassembly", i)
		}
	}
}

func TestTextCells(t *testing.T) {
	p := mustAssemble(t, "NOP\nNOP\nNOP")
	if p.TextCells() != 27 {
		t.Errorf("TextCells = %d, want 27", p.TextCells())
	}
}

func TestLabelAtEOF(t *testing.T) {
	p := mustAssemble(t, "NOP\nend:")
	if p.Symbols["end"] != 1 {
		t.Errorf("EOF label = %d, want 1", p.Symbols["end"])
	}
}

func TestMultipleErrorsReported(t *testing.T) {
	_, err := Assemble("FOO\nBAR\n")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "FOO") && !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error lacks line info: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("second error not reported: %v", err)
	}
}
