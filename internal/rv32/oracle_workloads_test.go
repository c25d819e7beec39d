package rv32_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/rv32"
)

// TestBaselineModelsMatchOracle holds the machine's run of every benchmark
// workload equal to the reference stepper with the per-instruction models:
// registers, RAM, PC, the retirement counters, the error and both cycle
// counts. Translator options never reach the RV32 run, so one run per
// workload covers every option set.
func TestBaselineModelsMatchOracle(t *testing.T) {
	ws := append(append([]bench.Workload(nil), bench.Workloads...), bench.ExtendedWorkloads...)
	for _, w := range ws {
		p, err := rv32.Assemble(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rv32.CheckAgainstReference(t, w.Name, p)
	}
}
