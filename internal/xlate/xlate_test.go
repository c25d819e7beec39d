package xlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv32"
	"repro/internal/sim"
)

// runEquiv assembles and runs src on the RV32 machine, translates it, runs
// the ART-9 result on both the functional and pipelined cores, and returns
// everything for comparison.
type equivRun struct {
	rv   *rv32.Machine
	out  *Output
	fn   *sim.Functional
	pipe *sim.Pipeline
	fres sim.Result
	pres sim.Result
}

func runEquiv(t *testing.T, src string, opts Options) *equivRun {
	t.Helper()
	rvProg, err := rv32.Assemble(src)
	if err != nil {
		t.Fatalf("rv32 assemble: %v", err)
	}
	m := rv32.NewMachine(1 << 16)
	if err := m.Load(rvProg); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("rv32 run: %v", err)
	}

	out, err := Translate(rvProg, opts)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	artProg, err := asm.Assemble(out.Asm)
	if err != nil {
		t.Fatalf("art9 assemble: %v\n--- generated ---\n%s", err, out.Asm)
	}
	checkHandOff(t, out, artProg)
	data := DataImage(rvProg)

	fn := sim.NewFunctional(sim.Config{})
	if err := fn.S.Load(artProg); err != nil {
		t.Fatal(err)
	}
	if err := fn.S.TDM.SetAll(data); err != nil {
		t.Fatal(err)
	}
	fres, err := fn.Run()
	if err != nil {
		t.Fatalf("art9 functional run: %v\n--- generated ---\n%s", err, out.Asm)
	}

	pipe := sim.NewPipeline(sim.Config{})
	if err := pipe.S.Load(artProg); err != nil {
		t.Fatal(err)
	}
	if err := pipe.S.TDM.SetAll(data); err != nil {
		t.Fatal(err)
	}
	pres, err := pipe.Run()
	if err != nil {
		t.Fatalf("art9 pipeline run: %v", err)
	}
	return &equivRun{rv: m, out: out, fn: fn, pipe: pipe, fres: fres, pres: pres}
}

// checkHandOff asserts that building the statements of a translation
// gives the program assembled from its text, and that parsing the text
// gives back the statements.
func checkHandOff(t *testing.T, out *Output, assembled *asm.Program) {
	t.Helper()
	built, err := asm.Build(out.Lines)
	if err != nil {
		t.Fatalf("art9 build: %v", err)
	}
	if !reflect.DeepEqual(built, assembled) {
		t.Fatalf("built and assembled programs differ\n--- generated ---\n%s", out.Asm)
	}
	parsed, err := asm.Parse(out.Asm)
	if err != nil {
		t.Fatalf("art9 parse: %v", err)
	}
	for i := range parsed {
		parsed[i].SrcLine = 0
	}
	if !reflect.DeepEqual(parsed, out.Lines) {
		t.Fatalf("parsing the text does not give back the statements\n--- generated ---\n%s", out.Asm)
	}
}

// checkReg asserts that the translated program computed the same value for
// an RV32 register, on both cores.
func (e *equivRun) checkReg(t *testing.T, name string, r rv32.Reg) {
	t.Helper()
	want := int(int32(e.rv.Reg(r)))
	got, err := e.out.ReadBack(e.fn.S, r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Errorf("%s: functional %v = %d, rv32 = %d", name, r, got, want)
	}
	got, err = e.out.ReadBack(e.pipe.S, r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Errorf("%s: pipelined %v = %d, rv32 = %d", name, r, got, want)
	}
}

// checkMem asserts that the RV32 word at byte address a equals TDM[a].
func (e *equivRun) checkMem(t *testing.T, name string, a int) {
	t.Helper()
	want := int(int32(uint32(e.rv.RAM[a]) | uint32(e.rv.RAM[a+1])<<8 |
		uint32(e.rv.RAM[a+2])<<16 | uint32(e.rv.RAM[a+3])<<24))
	w, err := e.fn.S.TDM.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if w.Int() != want {
		t.Errorf("%s: TDM[%d] = %d, rv32 RAM = %d", name, a, w.Int(), want)
	}
}

func TestTranslateArithmetic(t *testing.T) {
	e := runEquiv(t, `
		li a0, 1234
		li a1, -567
		add a2, a0, a1
		sub a3, a0, a1
		add a4, a2, a3
		neg a5, a4
		ebreak
	`, Options{})
	for r := rv32.Reg(10); r <= 15; r++ {
		e.checkReg(t, "arith", r)
	}
}

func TestTranslateWideConstants(t *testing.T) {
	e := runEquiv(t, `
		li a0, 9000
		li a1, -9841
		li a2, 13
		add a3, a0, a2
		ebreak
	`, Options{})
	for r := rv32.Reg(10); r <= 13; r++ {
		e.checkReg(t, "const", r)
	}
}

func TestTranslateCompare(t *testing.T) {
	e := runEquiv(t, `
		li a0, 5
		li a1, 9
		slt t0, a0, a1    # 1
		slt t1, a1, a0    # 0
		slt t2, a0, a0    # 0
		slti t3, a0, 6    # 1
		slti t4, a0, -6   # 0
		ebreak
	`, Options{})
	for _, r := range []rv32.Reg{5, 6, 7, 28, 29} {
		e.checkReg(t, "slt", r)
	}
}

func TestTranslateBranches(t *testing.T) {
	src := `
		li a0, %d
		li a1, %d
		li a2, 0
		li a3, 0
		li a4, 0
		beq a0, a1, eq
		li a2, 1
	eq:	blt a0, a1, lt
		li a3, 1
	lt:	bge a0, a1, ge
		li a4, 1
	ge:	ebreak
	`
	for _, pair := range [][2]int{{3, 7}, {7, 3}, {5, 5}, {-4, 4}, {-9, -9}} {
		e := runEquiv(t, fmt.Sprintf(src, pair[0], pair[1]), Options{})
		for _, r := range []rv32.Reg{12, 13, 14} {
			e.checkReg(t, fmt.Sprintf("branch(%d,%d)", pair[0], pair[1]), r)
		}
	}
}

func TestTranslateLoop(t *testing.T) {
	e := runEquiv(t, `
		li a0, 0
		li a1, 1
		li a2, 25
	loop:
		add a0, a0, a1
		addi a1, a1, 1
		ble a1, a2, loop
		ebreak
	`, Options{})
	e.checkReg(t, "loop-sum", 10) // 325
}

func TestTranslateMemory(t *testing.T) {
	e := runEquiv(t, `
		.data
	vec:	.word 10, -20, 30, -40
	dst:	.word 0, 0
		.text
		la t0, vec
		lw a0, 0(t0)
		lw a1, 4(t0)
		lw a2, 8(t0)
		lw a3, 12(t0)
		add a4, a0, a1
		add a4, a4, a2
		add a4, a4, a3
		la t1, dst
		sw a4, 0(t1)
		sw a0, 4(t1)
		ebreak
	`, Options{})
	for r := rv32.Reg(10); r <= 14; r++ {
		e.checkReg(t, "mem", r)
	}
	e.checkMem(t, "dst", 16)
	e.checkMem(t, "dst+4", 20)
}

func TestTranslateCallReturn(t *testing.T) {
	e := runEquiv(t, `
		li a0, 11
		call triple
		call triple
		ebreak
	triple:
		add t0, a0, a0
		add a0, t0, a0
		ret
	`, Options{})
	e.checkReg(t, "call", 10) // 99
}

func TestTranslateMulInline(t *testing.T) {
	cases := [][2]int{{7, 9}, {-7, 9}, {7, -9}, {-7, -9}, {0, 5}, {5, 0},
		{1, -1}, {99, 99}, {-99, 99}, {13, 121}}
	for _, c := range cases {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			mul a2, a0, a1
			ebreak
		`, c[0], c[1]), Options{})
		e.checkReg(t, fmt.Sprintf("mul(%d,%d)", c[0], c[1]), 12)
	}
}

func TestTranslateMulRuntime(t *testing.T) {
	for _, c := range [][2]int{{7, 9}, {-37, 41}, {0, 3}, {-1, -1}} {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			mul a2, a0, a1
			mul a3, a1, a0
			ebreak
		`, c[0], c[1]), Options{NoInlineMul: true})
		e.checkReg(t, "mul-rt", 12)
		e.checkReg(t, "mul-rt-comm", 13)
	}
}

func TestTranslateDivRem(t *testing.T) {
	cases := [][2]int{{100, 7}, {-100, 7}, {100, -7}, {-100, -7},
		{7, 100}, {0, 5}, {9841, 3}, {6561, 81}, {5, 5}, {44, 2}}
	for _, c := range cases {
		e := runEquiv(t, fmt.Sprintf(`
			li a0, %d
			li a1, %d
			div a2, a0, a1
			rem a3, a0, a1
			ebreak
		`, c[0], c[1]), Options{})
		e.checkReg(t, fmt.Sprintf("div(%d,%d)", c[0], c[1]), 12)
		e.checkReg(t, fmt.Sprintf("rem(%d,%d)", c[0], c[1]), 13)
	}
}

func TestTranslateDivByZero(t *testing.T) {
	// RISC-V semantics: q = −1, r = dividend.
	e := runEquiv(t, `
		li a0, 42
		li a1, 0
		div a2, a0, a1
		rem a3, a0, a1
		ebreak
	`, Options{})
	e.checkReg(t, "div0-q", 12)
	e.checkReg(t, "div0-r", 13)
}

func TestTranslateShifts(t *testing.T) {
	e := runEquiv(t, `
		li a0, 3
		slli a1, a0, 4     # 48
		li a2, 100
		srai a3, a2, 2     # 25
		li a4, 2
		sll a5, a0, a4     # 12
		srl a6, a2, a4     # 25
		ebreak
	`, Options{})
	for _, r := range []rv32.Reg{11, 13, 15, 16} {
		e.checkReg(t, "shift", r)
	}
}

func TestTranslateXorEquality(t *testing.T) {
	// XOR in its equality role: xor + seqz/snez.
	e := runEquiv(t, `
		li a0, 77
		li a1, 77
		li a2, 78
		xor t0, a0, a1
		seqz t1, t0       # equal → 1
		xor t2, a0, a2
		snez t3, t2       # different → 1
		ebreak
	`, Options{})
	for _, r := range []rv32.Reg{6, 28} {
		e.checkReg(t, "xor-eq", r)
	}
}

func TestTranslateBooleanOps(t *testing.T) {
	e := runEquiv(t, `
		li a0, 1
		li a1, 0
		and t0, a0, a1
		or  t1, a0, a1
		and t2, a0, a0
		or  t3, a1, a1
		ebreak
	`, Options{})
	for _, r := range []rv32.Reg{5, 6, 7, 28} {
		e.checkReg(t, "bool", r)
	}
}

func TestTranslateSpills(t *testing.T) {
	// Use more than 6 registers so renaming must spill (Fig. 2 operand
	// conversion / register renaming).
	var b strings.Builder
	regs := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
		"s2", "s3", "s4", "s5", "t0", "t1"}
	for i, r := range regs {
		fmt.Fprintf(&b, "li %s, %d\n", r, (i+1)*7)
	}
	// Mix them so every one is read again.
	for i := 1; i < len(regs); i++ {
		fmt.Fprintf(&b, "add %s, %s, %s\n", regs[i], regs[i], regs[i-1])
	}
	b.WriteString("ebreak\n")
	e := runEquiv(t, b.String(), Options{})
	for _, r := range []rv32.Reg{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 5, 6} {
		e.checkReg(t, "spill", r)
	}
	// The allocation must actually contain spills.
	spilled := 0
	for r := rv32.Reg(1); r < rv32.NumRegs; r++ {
		if loc, ok := e.out.RegLocation(r); ok && !loc.Direct {
			spilled++
		}
	}
	if spilled == 0 {
		t.Error("no registers were spilled despite pressure")
	}
}

func TestTranslateSpilledLink(t *testing.T) {
	// Force the link register to spill by making 7 other registers
	// hotter, then call through it.
	var b strings.Builder
	for i := 0; i < 10; i++ {
		for j, r := range []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6"} {
			fmt.Fprintf(&b, "addi %s, %s, %d\n", r, r, j+1)
		}
	}
	b.WriteString(`
		call bump
		call bump
		ebreak
	bump:	addi a0, a0, 100
		ret
	`)
	e := runEquiv(t, b.String(), Options{})
	e.checkReg(t, "spilled-link", 10)
	if loc, ok := e.out.RegLocation(1); !ok || loc.Direct {
		t.Skip("ra happened to stay direct; pressure heuristic changed")
	}
}

func TestPipelineAgreesWithFunctionalOnTranslated(t *testing.T) {
	// The three-way agreement on a nontrivial program.
	e := runEquiv(t, `
		.data
	arr:	.word 5, 1, 4, 2, 3
		.text
		la s0, arr
		li s1, 0          # i
		li s2, 4          # n-1
		li a0, 0          # checksum
	outer:
		lw t0, 0(s0)
		add a0, a0, t0
		mul a0, a0, t0
		addi s0, s0, 4
		addi s1, s1, 1
		ble s1, s2, outer
		ebreak
	`, Options{})
	e.checkReg(t, "3way", 10)
	if e.fres.Retired != e.pres.Retired {
		t.Errorf("retired mismatch: %d vs %d", e.fres.Retired, e.pres.Retired)
	}
}

func TestTranslateRandomALUPrograms(t *testing.T) {
	// Random straight-line programs over the value-contract-safe subset.
	rng := rand.New(rand.NewSource(99))
	regs := []string{"a0", "a1", "a2", "a3", "t0", "t1", "s2", "s3", "s4"}
	for trial := 0; trial < 30; trial++ {
		var b strings.Builder
		for _, r := range regs {
			fmt.Fprintf(&b, "li %s, %d\n", r, rng.Intn(201)-100)
		}
		for i := 0; i < 30; i++ {
			d := regs[rng.Intn(len(regs))]
			s1 := regs[rng.Intn(len(regs))]
			s2 := regs[rng.Intn(len(regs))]
			switch rng.Intn(5) {
			case 0:
				fmt.Fprintf(&b, "add %s, %s, %s\n", d, s1, s2)
			case 1:
				fmt.Fprintf(&b, "sub %s, %s, %s\n", d, s1, s2)
			case 2:
				fmt.Fprintf(&b, "addi %s, %s, %d\n", d, s1, rng.Intn(21)-10)
			case 3:
				fmt.Fprintf(&b, "slt %s, %s, %s\n", d, s1, s2)
			case 4:
				fmt.Fprintf(&b, "sub %s, %s, %s\nsrai %s, %s, 1\n", d, s1, s2, d, d)
			}
		}
		b.WriteString("ebreak\n")
		e := runEquiv(t, b.String(), Options{})
		for _, rn := range regs {
			r, _ := rv32.ParseReg(rn)
			e.checkReg(t, fmt.Sprintf("rand-%d", trial), r)
		}
	}
}

func TestPeepholeRemovesRedundancy(t *testing.T) {
	src := `
		li a0, 5
		mv a1, a0
		mv a2, a1
		addi a3, a2, 0
		ebreak
	`
	rvProg, err := rv32.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Translate(rvProg, Options{NoPeephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Removed == 0 {
		t.Error("peephole removed nothing from a redundancy-rich program")
	}
	if len(with.Lines) >= len(without.Lines) {
		t.Errorf("peephole did not shrink: %d vs %d lines", len(with.Lines), len(without.Lines))
	}
	// And of course both must still be correct.
	e := runEquiv(t, src, Options{})
	for _, r := range []rv32.Reg{10, 11, 12, 13} {
		e.checkReg(t, "peep", r)
	}
}

func TestTranslateDiagnostics(t *testing.T) {
	rvProg, err := rv32.Assemble(`
		li a0, 1
		li a1, 1
		xor a2, a0, a1
		and a3, a0, a1
		sltu a4, a0, a1
		ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out.Diagnostics, "\n")
	for _, want := range []string{"XOR", "AND", "SLTU"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diagnostics missing %s: %v", want, out.Diagnostics)
		}
	}
}

func TestTranslateAUIPCUnsupported(t *testing.T) {
	rvProg, err := rv32.Assemble("auipc a0, 1\nebreak")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(rvProg, Options{}); err == nil {
		t.Error("AUIPC translated without error")
	}
}

func TestGeneratedAsmMentionsFramework(t *testing.T) {
	rvProg, _ := rv32.Assemble("li a0, 1\nebreak")
	out, err := Translate(rvProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Asm, "compiling framework") {
		t.Error("generated header missing")
	}
}
