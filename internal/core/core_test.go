package core

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gate"
	"repro/internal/sim"
	"repro/internal/xlate"
)

const tinyRV = `
	li   a0, 6
	li   a1, 7
	mul  a2, a0, a1
	ebreak
`

func TestSoftwareFrameworkCompile(t *testing.T) {
	f := &SoftwareFramework{}
	res, err := f.Compile(tinyRV)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Binary.Insts) == 0 || len(res.Program.Text) == 0 {
		t.Fatal("empty compile result")
	}
	if !strings.Contains(res.Ternary.Asm, "HALT") {
		t.Error("generated assembly lacks HALT")
	}
	// End-to-end value check through the functional core.
	state, _, err := RunFunctional(res.Program, res.Data, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Ternary.ReadBack(state, 12) // a2
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("6*7 = %d, want 42", got)
	}
}

func TestSoftwareFrameworkBadInput(t *testing.T) {
	f := &SoftwareFramework{}
	if _, err := f.Compile("bogus instruction"); err == nil {
		t.Error("bad RV32 source compiled")
	}
	if _, err := f.Compile("auipc a0, 1\nebreak"); err == nil {
		t.Error("untranslatable source compiled")
	}
}

func TestHardwareFrameworkCNTFET(t *testing.T) {
	f := &SoftwareFramework{}
	res, err := f.Compile(tinyRV)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareFramework{} // defaults: CNTFET at fmax
	ev, err := hw.Evaluate(res.Program, res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cycles.Retired == 0 {
		t.Error("no instructions retired")
	}
	if ev.Analysis.FmaxMHz <= 0 || ev.Impl.PowerW <= 0 || ev.Impl.DMIPSPerW <= 0 {
		t.Errorf("degenerate evaluation: %+v", ev.Impl)
	}
	if ev.Impl.FreqMHz != ev.Analysis.FmaxMHz {
		t.Error("default frequency is not fmax")
	}
}

func TestHardwareFrameworkFPGA(t *testing.T) {
	f := &SoftwareFramework{}
	res, err := f.Compile(tinyRV)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareFramework{
		Tech:     gate.StratixVEmulation(),
		FreqMHz:  150,
		MemWords: 256,
	}
	ev, err := hw.Evaluate(res.Program, res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Impl.RAMBits != 9216 {
		t.Errorf("RAM bits = %d, want 9216", ev.Impl.RAMBits)
	}
	if ev.Impl.ALMs == 0 || ev.Impl.Registers == 0 {
		t.Error("FPGA resources missing")
	}
}

// TestEvaluateMatchesImplFor holds the hardware framework to the
// tables' inputs: on the Dhrystone program and data, Evaluate returns the
// Implementation bench.ImplFor derives from bench.Run's outcome, for
// Table V's FPGA emulation at its 150 MHz, 256-word operating point and
// Table IV's CNTFET core at fmax.
func TestEvaluateMatchesImplFor(t *testing.T) {
	w, ok := bench.ByName("dhrystone")
	if !ok {
		t.Fatal("no dhrystone workload")
	}
	o, err := bench.Run(w, xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&SoftwareFramework{}).Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, hw := range []*HardwareFramework{
		{Tech: gate.StratixVEmulation(), FreqMHz: 150, MemWords: 256},
		{Tech: gate.CNTFET32()},
	} {
		ev, err := hw.Evaluate(res.Program, res.Data, w.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		if want := bench.ImplFor(o, hw.Tech); ev.Impl != want {
			t.Errorf("%s: Evaluate %+v, want bench.ImplFor's %+v", hw.Tech.Name, ev.Impl, want)
		}
	}
}

func TestHardwareFrameworkIterationNormalisation(t *testing.T) {
	f := &SoftwareFramework{}
	res, err := f.Compile(tinyRV)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareFramework{}
	one, err := hw.Evaluate(res.Program, res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := hw.Evaluate(res.Program, res.Data, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Ten "iterations" of the same cycles → 10× the DMIPS.
	if ten.Impl.DMIPS < 9.9*one.Impl.DMIPS {
		t.Errorf("iteration normalisation wrong: %f vs %f", ten.Impl.DMIPS, one.Impl.DMIPS)
	}
	// iterations < 1 clamps to 1.
	clamped, err := hw.Evaluate(res.Program, res.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Impl.DMIPS != one.Impl.DMIPS {
		t.Error("iterations=0 not clamped to 1")
	}
}

func TestRunFunctionalNilData(t *testing.T) {
	f := &SoftwareFramework{}
	res, err := f.Compile("li a0, 5\nebreak")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunFunctional(res.Program, nil, sim.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateAnalysisIsCallerOwned(t *testing.T) {
	// Evaluate serves the gate-level analysis from the engine's shared
	// cache, but each Evaluation must own its copy: mutating one run's
	// Analysis must not leak into the next.
	f := &SoftwareFramework{}
	res, err := f.Compile(tinyRV)
	if err != nil {
		t.Fatal(err)
	}
	hw := &HardwareFramework{}
	ev1, err := hw.Evaluate(res.Program, res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFmax := ev1.Analysis.FmaxMHz
	ev1.Analysis.FmaxMHz = -1
	for k := range ev1.Analysis.Histogram {
		ev1.Analysis.Histogram[k] = -1
	}

	ev2, err := hw.Evaluate(res.Program, res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Analysis == ev1.Analysis {
		t.Fatal("evaluations share one Analysis instance")
	}
	if ev2.Analysis.FmaxMHz != wantFmax {
		t.Errorf("fmax %v after mutation of a previous evaluation, want %v", ev2.Analysis.FmaxMHz, wantFmax)
	}
	for k, v := range ev2.Analysis.Histogram {
		if v < 0 {
			t.Fatalf("histogram[%v] leaked a mutated value", k)
		}
	}
}
