package xlate

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rv32"
	"repro/internal/ternary"
)

// progGen builds random structured RV32 programs: straight-line arithmetic
// mixed with if/else diamonds and bounded counted loops (always
// terminating), over the value-contract-safe subset. This is the widest
// net for translator bugs: every control-flow shape the mapping, label
// resolution, and peephole phases must preserve.
type progGen struct {
	rng   *rand.Rand
	b     strings.Builder
	label int
	depth int
}

func (g *progGen) newLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

var genRegs = []string{"a0", "a1", "a2", "a3", "t0", "t1", "s2", "s3"}

func (g *progGen) reg() string { return genRegs[g.rng.Intn(len(genRegs))] }

// stmt emits one random statement (possibly a nested structure).
func (g *progGen) stmt() {
	switch k := g.rng.Intn(10); {
	case k < 4: // arithmetic
		d, s1, s2 := g.reg(), g.reg(), g.reg()
		switch g.rng.Intn(4) {
		case 0:
			fmt.Fprintf(&g.b, "\tadd %s, %s, %s\n", d, s1, s2)
		case 1:
			fmt.Fprintf(&g.b, "\tsub %s, %s, %s\n", d, s1, s2)
		case 2:
			fmt.Fprintf(&g.b, "\taddi %s, %s, %d\n", d, s1, g.rng.Intn(39)-19)
		case 3:
			fmt.Fprintf(&g.b, "\tslt %s, %s, %s\n", d, s1, s2)
		}
	case k < 6: // memory (aligned scratch area at 512..1020)
		r, base := g.reg(), 512+4*g.rng.Intn(120)
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "\tli s4, %d\n\tsw %s, 0(s4)\n", base, r)
		} else {
			fmt.Fprintf(&g.b, "\tli s4, %d\n\tlw %s, 0(s4)\n", base, r)
		}
	case k < 8 && g.depth < 2: // if/else diamond
		g.depth++
		els, end := g.newLabel("E"), g.newLabel("X")
		cond := g.rng.Intn(3)
		r1, r2 := g.reg(), g.reg()
		switch cond {
		case 0:
			fmt.Fprintf(&g.b, "\tbeq %s, %s, %s\n", r1, r2, els)
		case 1:
			fmt.Fprintf(&g.b, "\tblt %s, %s, %s\n", r1, r2, els)
		case 2:
			fmt.Fprintf(&g.b, "\tbge %s, %s, %s\n", r1, r2, els)
		}
		g.stmt()
		fmt.Fprintf(&g.b, "\tj %s\n%s:\n", end, els)
		g.stmt()
		fmt.Fprintf(&g.b, "%s:\n", end)
		g.depth--
	case k < 9 && g.depth < 2: // bounded counted loop
		g.depth++
		head := g.newLabel("L")
		n := g.rng.Intn(5) + 2
		fmt.Fprintf(&g.b, "\tli s5, %d\n%s:\n", n, head)
		g.stmt()
		fmt.Fprintf(&g.b, "\taddi s5, s5, -1\n\tbgtz s5, %s\n", head)
		g.depth--
	default: // clamp a register into a safe range to avoid overflow drift
		r := g.reg()
		g.b.WriteString("\tli s6, 1000\n")
		fmt.Fprintf(&g.b, "\trem %s, %s, s6\n", r, r)
	}
}

func (g *progGen) generate(n int) string {
	g.b.Reset()
	for i, r := range genRegs {
		fmt.Fprintf(&g.b, "\tli %s, %d\n", r, (i*37)%100-50)
	}
	for i := 0; i < n; i++ {
		g.stmt()
	}
	g.b.WriteString("\tebreak\n")
	return g.b.String()
}

// TestRandomStructuredPrograms is the translator's acid test: 40 random
// programs with nested control flow must produce identical register state
// on the RV32 machine and both ART-9 cores.
func TestRandomStructuredPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	g := &progGen{rng: rand.New(rand.NewSource(2024))}
	for trial := 0; trial < 40; trial++ {
		src := g.generate(12)
		e := runEquiv(t, src, Options{})
		for _, rn := range genRegs {
			r, _ := rv32.ParseReg(rn)
			e.checkReg(t, fmt.Sprintf("structured-%d", trial), r)
		}
		if t.Failed() {
			t.Logf("failing program:\n%s", src)
			t.FailNow()
		}
	}
}

// TestRandomStructuredProgramsNoPeephole cross-checks that the redundancy
// checker never changes semantics: with and without it, identical state.
func TestRandomStructuredProgramsNoPeephole(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	g := &progGen{rng: rand.New(rand.NewSource(4048))}
	for trial := 0; trial < 15; trial++ {
		src := g.generate(10)
		with := runEquiv(t, src, Options{})
		without := runEquiv(t, src, Options{NoPeephole: true})
		for _, rn := range genRegs {
			r, _ := rv32.ParseReg(rn)
			a, err := with.out.ReadBack(with.fn.S, r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := without.out.ReadBack(without.fn.S, r)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("trial %d: peephole changed %s: %d vs %d\n%s",
					trial, rn, a, b, src)
			}
		}
		// And the peephole must never grow the program.
		if len(with.out.Lines) > len(without.out.Lines) {
			t.Fatalf("trial %d: peephole grew the program", trial)
		}
	}
}

// FuzzRV32VsTranslated is the RV32-vs-translated differential oracle: the
// one that shares no code with the ART-9 cores' evaluate. Each input is a
// progGen seed and a statement count of at most 12 (larger counts fold).
// The RV32 machine is stepped first, and a program that drives any
// register outside the value contract is skipped as out of scope; every
// other program must leave each genRegs register equal on the RV32 machine
// and on both ART-9 cores.
//
// The seed corpus is in testdata/fuzz/FuzzRV32VsTranslated.
func FuzzRV32VsTranslated(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, count uint8) {
		n := int(count % 13)
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		src := g.generate(n)
		if r, v, ok := firstOutOfContract(t, src); !ok {
			t.Skipf("%v reaches %d, outside the value contract", r, v)
		}
		e := runEquiv(t, src, Options{})
		name := fmt.Sprintf("seed %d, %d statements", seed, n)
		for _, rn := range genRegs {
			r, _ := rv32.ParseReg(rn)
			e.checkReg(t, name, r)
		}
		if t.Failed() {
			t.Logf("failing program:\n%s", src)
		}
	})
}

// firstOutOfContract steps src on the RV32 machine to its halt and
// reports the first register value outside the translator's value
// contract — one balanced 9-trit word, ±9,841 — if any.
func firstOutOfContract(t *testing.T, src string) (rv32.Reg, int32, bool) {
	t.Helper()
	p, err := rv32.Assemble(src)
	if err != nil {
		t.Fatalf("rv32 assemble: %v\n%s", err, src)
	}
	m := rv32.NewMachine(1 << 16)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	for steps := 0; steps < m.MaxSteps; steps++ {
		done, err := m.Step()
		if err != nil {
			t.Fatalf("rv32 run: %v\n%s", err, src)
		}
		for r, x := range m.X {
			if v := int32(x); v > ternary.MaxInt || v < ternary.MinInt {
				return rv32.Reg(r), v, false
			}
		}
		if done {
			return 0, 0, true
		}
	}
	t.Fatalf("rv32: no halt within %d steps\n%s", m.MaxSteps, src)
	return 0, 0, false
}
