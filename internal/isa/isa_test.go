package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ternary"
)

func TestOpNamesComplete(t *testing.T) {
	if len(opNames) != NumOps {
		t.Fatalf("opNames has %d entries, want %d", len(opNames), NumOps)
	}
	seen := map[string]bool{}
	for i := 0; i < NumOps; i++ {
		n := Op(i).String()
		if n == "" || strings.HasPrefix(n, "Op(") {
			t.Errorf("Op(%d) has no name", i)
		}
		if seen[n] {
			t.Errorf("duplicate mnemonic %q", n)
		}
		seen[n] = true
	}
}

func TestCategories(t *testing.T) {
	// Table I: 12 R, 6 I, 4 B, 2 M.
	count := map[Category]int{}
	for i := 0; i < NumOps; i++ {
		count[Op(i).Category()]++
	}
	want := map[Category]int{CatR: 12, CatI: 6, CatB: 4, CatM: 2}
	for c, n := range want {
		if count[c] != n {
			t.Errorf("category %v has %d ops, want %d", c, count[c], n)
		}
	}
}

func TestImmWidthsMatchTableI(t *testing.T) {
	want := map[Op]int{
		MV: 0, PTI: 0, NTI: 0, STI: 0, AND: 0, OR: 0, XOR: 0,
		ADD: 0, SUB: 0, SR: 0, SL: 0, COMP: 0,
		ANDI: 3, ADDI: 3, SRI: 2, SLI: 2, LUI: 4, LI: 5,
		BEQ: 4, BNE: 4, JAL: 5, JALR: 3,
		LOAD: 3, STORE: 3,
	}
	for op, n := range want {
		if got := op.ImmTrits(); got != n {
			t.Errorf("%v.ImmTrits() = %d, want %d", op, got, n)
		}
	}
}

func TestParseReg(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		name := Reg(i).String()
		r, err := ParseReg(name)
		if err != nil || r != Reg(i) {
			t.Errorf("ParseReg(%q) = %v, %v", name, r, err)
		}
		r, err = ParseReg(strings.ToLower(name))
		if err != nil || r != Reg(i) {
			t.Errorf("ParseReg lower(%q) = %v, %v", name, r, err)
		}
	}
	for _, bad := range []string{"T9", "T", "X0", "t10", "", "9"} {
		if _, err := ParseReg(bad); err == nil {
			t.Errorf("ParseReg(%q) succeeded", bad)
		}
	}
}

// randomInst generates a uniformly random valid instruction.
func randomInst(rng *rand.Rand) Inst {
	op := Op(rng.Intn(NumOps))
	i := Inst{Op: op}
	if op.HasTa() {
		i.Ta = Reg(rng.Intn(NumRegs))
	}
	if op.HasTb() {
		i.Tb = Reg(rng.Intn(NumRegs))
	}
	if n := op.ImmTrits(); n > 0 {
		max := ternary.MaxForTrits(n)
		i.Imm = rng.Intn(2*max+1) - max
	}
	if op.IsBranch() {
		i.B = ternary.Trit(rng.Intn(3) - 1)
	}
	return i
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 5000; n++ {
		in := randomInst(rng)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)) = %v: %v", in, w, err)
		}
		if out != in {
			t.Fatalf("round trip: %v -> %v -> %v", in, w, out)
		}
	}
}

func TestEncodeDeterministicExamples(t *testing.T) {
	// Pin a few encodings so the binary format cannot drift silently.
	cases := []struct {
		in   Inst
		want string // ternary word, MST first
	}{
		// Hand-checked against the field layout of DESIGN.md §3.
		{Inst{Op: ADD, Ta: 1, Tb: 2}, "TT01TT0T1"},
		{NOP(), "0T00TT000"},
		{Inst{Op: LI, Ta: 4, Imm: 121}, "1T0011111"},
		{Inst{Op: JAL, Ta: 8, Imm: -121}, "T011TTTTT"},
		{Inst{Op: BEQ, Tb: 0, B: ternary.Pos, Imm: 40}, "101TT1111"},
		{Inst{Op: STORE, Ta: 3, Tb: 2, Imm: -13}, "110TT1TTT"},
	}
	for _, c := range cases {
		w, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.in, err)
		}
		if w.String() != c.want {
			t.Errorf("Encode(%v) = %s, want %s", c.in, w, c.want)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	bad := []Inst{
		{Op: ADDI, Ta: 0, Imm: 14},                    // imm3 max 13
		{Op: ADDI, Ta: 0, Imm: -14},                   //
		{Op: SRI, Ta: 0, Imm: 5},                      // imm2 max 4
		{Op: LUI, Ta: 0, Imm: 41},                     // imm4 max 40
		{Op: LI, Ta: 0, Imm: 122},                     // imm5 max 121
		{Op: JAL, Ta: 0, Imm: -122},                   //
		{Op: ADD, Ta: 9, Tb: 0},                       // bad register
		{Op: ADD, Ta: 0, Tb: 12},                      //
		{Op: BEQ, Tb: 0, B: 2, Imm: 0},                // bad condition trit
		{Op: ADD, Ta: 0, Tb: 0, Imm: 3},               // R-type with imm
		{Op: MV, Ta: 0, Tb: 0, B: ternary.Pos},        // non-branch with B
		{Op: Op(77), Ta: 0},                           // invalid op
		{Op: BEQ, Tb: 0, B: ternary.Neg, Imm: 41},     // branch imm4 max 40
		{Op: LOAD, Ta: 0, Tb: 0, Imm: ternary.MaxInt}, // way out
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", in)
		}
	}
}

func TestDecodeRejectsIllegal(t *testing.T) {
	// Illegal R-type minor (e.g. +13 is unassigned).
	w := ternary.Word{}.SetField(7, 8, majR).SetField(4, 6, 13)
	if _, err := Decode(w); err == nil {
		t.Error("Decode of illegal R minor succeeded")
	}
	// Illegal I-type minor: t6=+1, t5=0 (only t5=−1→SLI defined).
	w = ternary.Word{}.SetField(7, 8, majI).SetField(6, 6, 1).SetField(5, 5, 0)
	if _, err := Decode(w); err == nil {
		t.Error("Decode of illegal I minor succeeded")
	}
	// SRI with nonzero t2 padding.
	w = ternary.Word{}.SetField(7, 8, majI).SetField(6, 6, 0).SetField(5, 5, 1).SetField(2, 2, 1)
	if _, err := Decode(w); err == nil {
		t.Error("Decode of SRI with dirty padding succeeded")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncode of invalid inst did not panic")
		}
	}()
	MustEncode(Inst{Op: ADDI, Imm: 1000})
}

func TestNOP(t *testing.T) {
	n := NOP()
	if !n.IsNOP() {
		t.Error("NOP().IsNOP() = false")
	}
	if n.Op != ADDI || n.Imm != 0 {
		t.Errorf("NOP() = %v, want ADDI x,0", n)
	}
	if (Inst{Op: ADDI, Ta: 3, Imm: 0}).IsNOP() != true {
		t.Error("ADDI T3,0 should be a NOP")
	}
	if (Inst{Op: ADDI, Ta: 3, Imm: 1}).IsNOP() {
		t.Error("ADDI T3,1 is not a NOP")
	}
}

func TestDisassemblyForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Ta: 1, Tb: 2}, "ADD T1, T2"},
		{Inst{Op: STI, Ta: 0, Tb: 8}, "STI T0, T8"},
		{Inst{Op: ADDI, Ta: 5, Imm: -13}, "ADDI T5, -13"},
		{Inst{Op: LUI, Ta: 2, Imm: 40}, "LUI T2, 40"},
		{Inst{Op: BEQ, Tb: 3, B: ternary.Neg, Imm: 7}, "BEQ T3, -1, 7"},
		{Inst{Op: BNE, Tb: 3, B: ternary.Zero, Imm: -7}, "BNE T3, 0, -7"},
		{Inst{Op: JAL, Ta: 1, Imm: 20}, "JAL T1, 20"},
		{Inst{Op: JALR, Ta: 1, Tb: 2, Imm: 0}, "JALR T1, T2, 0"},
		{Inst{Op: LOAD, Ta: 1, Tb: 2, Imm: 3}, "LOAD T1, T2, 3"},
		{Inst{Op: STORE, Ta: 1, Tb: 2, Imm: -3}, "STORE T1, T2, -3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEncodeIsInjective(t *testing.T) {
	// Two different valid instructions never share an encoding.
	rng := rand.New(rand.NewSource(8))
	seen := map[ternary.Word]Inst{}
	for n := 0; n < 3000; n++ {
		in := randomInst(rng)
		w := MustEncode(in)
		if prev, ok := seen[w]; ok && prev != in {
			t.Fatalf("encoding collision: %v and %v both encode to %v", prev, in, w)
		}
		seen[w] = in
	}
}

func TestDecodeTotalOverRandomWords(t *testing.T) {
	// Decode must never panic on arbitrary valid ternary words, and any
	// successful decode must re-encode to the same word.
	f := func(v int16) bool {
		w := ternary.FromInt(int(v) * 7)
		in, err := Decode(w)
		if err != nil {
			return true // illegal instruction is fine
		}
		w2, err := Encode(in)
		return err == nil && w2 == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDataflowPredicates(t *testing.T) {
	// STORE reads Ta (the stored value) but writes nothing.
	if !STORE.ReadsTa() || STORE.WritesReg() {
		t.Error("STORE dataflow wrong")
	}
	// MV reads only Tb.
	if MV.ReadsTa() || !MV.ReadsTb() || !MV.WritesReg() {
		t.Error("MV dataflow wrong")
	}
	// Branches write nothing and read Tb.
	if BEQ.WritesReg() || !BEQ.ReadsTb() || BEQ.ReadsTa() {
		t.Error("BEQ dataflow wrong")
	}
	// JAL writes the link register, reads nothing.
	if !JAL.WritesReg() || JAL.ReadsTa() || JAL.ReadsTb() {
		t.Error("JAL dataflow wrong")
	}
	// LI merges, so it reads and writes Ta.
	if !LI.ReadsTa() || !LI.WritesReg() {
		t.Error("LI dataflow wrong")
	}
	// LUI overwrites completely.
	if LUI.ReadsTa() {
		t.Error("LUI should not read Ta")
	}
}
