package rv32_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rv32"
)

// BenchmarkObservedRun runs a RUNS=175 Dhrystone — the middle of the
// long-sim job pool — on the RV32 machine with both baseline cycle
// models attached, as every suite job does.
func BenchmarkObservedRun(b *testing.B) {
	src := strings.Replace(bench.Dhrystone.Source, ".equ RUNS, 100", ".equ RUNS, 175", 1)
	p, err := rv32.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := rv32.NewMachine(1 << 16)
		vex, pico := rv32.NewVexRiscvModel(), rv32.NewPicoRV32Model()
		m.Observe(vex)
		m.Observe(pico)
		if err := m.Load(p); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if vex.TotalCycles() == 0 || pico.TotalCycles() == 0 {
			b.Fatal("no cycles counted")
		}
	}
}
