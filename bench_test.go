// Benchmark harness: one testing.B benchmark per evaluation artifact of
// the paper (Fig. 5, Tables II–V), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark reports the reproduced
// figures as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation in one run.
package art9_test

import (
	"testing"

	art9 "repro"
	"repro/internal/bench"
	"repro/internal/gate"
	"repro/internal/perf"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// run is a helper caching one outcome per workload within a bench run.
var outcomes = map[string]*bench.Outcome{}

func outcome(b *testing.B, name string) *bench.Outcome {
	b.Helper()
	if o, ok := outcomes[name]; ok {
		return o
	}
	w, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	o, err := bench.Run(w, xlate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	outcomes[name] = o
	return o
}

// BenchmarkFig5MemoryCells regenerates Fig. 5: instruction-memory cells of
// the four benchmarks on ART-9 (trits) vs RV32I and ARMv6-M (bits).
func BenchmarkFig5MemoryCells(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ARTTrits), "ART9-trits")
			b.ReportMetric(float64(o.RVBits), "RV32I-bits")
			b.ReportMetric(float64(o.ARMBits), "ARMv6M-bits")
			b.ReportMetric(100*(1-float64(o.ARTTrits)/float64(o.RVBits)), "reduction-%")
		})
	}
}

// BenchmarkTable2Dhrystone regenerates Table II: DMIPS/MHz of the three
// cores on the Dhrystone-class workload.
func BenchmarkTable2Dhrystone(b *testing.B) {
	w, _ := bench.ByName("dhrystone")
	var o *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		o, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	iters := float64(w.Iterations)
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.ART9Cycles)/iters), "ART9-DMIPS/MHz")
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.VexCycles)/iters), "Vex-DMIPS/MHz")
	b.ReportMetric(perf.DMIPSPerMHz(float64(o.PicoCycles)/iters), "Pico-DMIPS/MHz")
	b.ReportMetric(float64(o.ARTTrits), "ART9-trits")
}

// BenchmarkTable3Cycles regenerates Table III: processing cycles for the
// four test programs, ART-9 vs PicoRV32.
func BenchmarkTable3Cycles(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ART9Cycles), "ART9-cycles")
			b.ReportMetric(float64(o.PicoCycles), "Pico-cycles")
			b.ReportMetric(float64(o.PicoCycles)/float64(o.ART9Cycles), "speedup-x")
		})
	}
}

// BenchmarkColdCompile times one compile of a workload with no program
// cache: the RV32 parse, the translation and the ART-9 assembly of its
// text, the path a job takes when its program is not cached yet.
func BenchmarkColdCompile(b *testing.B) {
	for _, name := range []string{"bubble", "dhrystone"} {
		w, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rvProg, err := rv32.Assemble(w.Source)
				if err != nil {
					b.Fatal(err)
				}
				out, err := xlate.Translate(rvProg, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if compiled, err = art9.Assemble(out.Asm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// compiled keeps BenchmarkColdCompile's result live.
var compiled *art9.Program

// BenchmarkTable4CNTFET regenerates Table IV: gates, power and DMIPS/W of
// the CNTFET implementation at fmax.
func BenchmarkTable4CNTFET(b *testing.B) {
	o := outcome(b, "dhrystone")
	cyclesPerIter := float64(o.ART9Cycles) / float64(o.Workload.Iterations)
	var impl perf.Implementation
	for i := 0; i < b.N; i++ {
		tech := gate.CNTFET32()
		an := gate.Analyze(gate.BuildART9(), tech)
		impl = perf.Estimate(an, tech, 0, cyclesPerIter, 0, o.MemAccessRate(), 0)
	}
	b.ReportMetric(float64(impl.Gates), "gates")
	b.ReportMetric(impl.PowerW*1e6, "power-uW")
	b.ReportMetric(impl.DMIPSPerW/1e6, "MDMIPS/W")
	b.ReportMetric(impl.FreqMHz, "fmax-MHz")
}

// BenchmarkTable5FPGA regenerates Table V: ALMs, registers, RAM bits,
// power and DMIPS/W of the binary-encoded FPGA prototype at 150 MHz.
func BenchmarkTable5FPGA(b *testing.B) {
	o := outcome(b, "dhrystone")
	cyclesPerIter := float64(o.ART9Cycles) / float64(o.Workload.Iterations)
	var impl perf.Implementation
	for i := 0; i < b.N; i++ {
		tech := gate.StratixVEmulation()
		an := gate.Analyze(gate.BuildART9(), tech)
		impl = perf.Estimate(an, tech, 150, cyclesPerIter, 2*256*9, o.MemAccessRate(), 2*256*18)
	}
	b.ReportMetric(float64(impl.ALMs), "ALMs")
	b.ReportMetric(float64(impl.Registers), "registers")
	b.ReportMetric(float64(impl.RAMBits), "RAM-bits")
	b.ReportMetric(impl.PowerW, "power-W")
	b.ReportMetric(impl.DMIPSPerW, "DMIPS/W")
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationPeephole measures the redundancy-checking phase's
// yield: translated size with and without it (Fig. 2's third phase).
func BenchmarkAblationPeephole(b *testing.B) {
	w, _ := bench.ByName("dhrystone")
	var with, without *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		with, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		without, err = bench.Run(w, xlate.Options{NoPeephole: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(with.ARTInsts), "insts-with")
	b.ReportMetric(float64(without.ARTInsts), "insts-without")
	b.ReportMetric(float64(with.Removed), "removed")
}

// BenchmarkAblationInlineMul compares the inline software multiply against
// the shared runtime routine on the multiply-bound GEMM.
func BenchmarkAblationInlineMul(b *testing.B) {
	w, _ := bench.ByName("gemm")
	var inline, runtime *bench.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		inline, err = bench.Run(w, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		runtime, err = bench.Run(w, xlate.Options{NoInlineMul: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inline.ART9Cycles), "cycles-inline")
	b.ReportMetric(float64(runtime.ART9Cycles), "cycles-runtime")
}

// BenchmarkAblationHWMultiplier evaluates the design decision the paper
// made in Table II (multiplier: ✗): the gate/cycle-time/power cost of
// bolting the ternary array multiplier of [10] onto the EX stage.
func BenchmarkAblationHWMultiplier(b *testing.B) {
	var base, ext *gate.Analysis
	for i := 0; i < b.N; i++ {
		tech := gate.CNTFET32()
		base = gate.Analyze(gate.BuildART9(), tech)
		ext = gate.Analyze(gate.BuildART9WithMultiplier(), tech)
	}
	tech := gate.CNTFET32()
	b.ReportMetric(float64(base.Gates), "gates-base")
	b.ReportMetric(float64(ext.Gates), "gates-withmul")
	b.ReportMetric(base.FmaxMHz, "fmax-base-MHz")
	b.ReportMetric(ext.FmaxMHz, "fmax-withmul-MHz")
	b.ReportMetric(ext.PowerW(tech, ext.FmaxMHz, 0, 0)*1e6, "power-withmul-uW")
}

// BenchmarkAblationForwarding quantifies the pipeline's hazard handling:
// the share of cycles lost to load-use stalls and branch squashes across
// the suite (the §IV-B design point: only these two stall sources exist).
func BenchmarkAblationForwarding(b *testing.B) {
	for _, w := range bench.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var o *bench.Outcome
			for i := 0; i < b.N; i++ {
				var err error
				o, err = bench.Run(w, xlate.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.ARTStallsLoad), "load-stalls")
			b.ReportMetric(float64(o.ARTStallsBranch), "squashes")
			b.ReportMetric(float64(o.ART9Cycles)/float64(o.ARTRetired), "CPI")
		})
	}
}

// BenchmarkSimulatorThroughput measures the raw simulator speed
// (instructions per second of host time) — the practical figure of merit
// of the cycle-accurate model itself — and the bytes each fresh machine
// allocates, on both cores and on the functional core's timed run, the one
// every suite job makes. The top-level cases run a 9-word counting loop,
// where machine set-up is a visible share of each run; the dhrystone cases
// run the suite's translated Dhrystone image (504 words, 90,332
// instructions, 108,205 pipelined cycles), where the per-step cost
// dominates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := art9.Assemble(`
		LDI T1, 0
		LDI T2, 1
		LDI T3, 121
	loop:	ADD T1, T2
		ADDI T2, 1
		MV T4, T2
		COMP T4, T3
		BNE T4, 1, loop
		HALT
	`)
	if err != nil {
		b.Fatal(err)
	}
	benchCores(b, prog, nil)
	b.Run("dhrystone", func(b *testing.B) {
		w, _ := bench.ByName("dhrystone")
		rvProg, err := rv32.Assemble(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		out, err := xlate.Translate(rvProg, xlate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := art9.Assemble(out.Asm)
		if err != nil {
			b.Fatal(err)
		}
		benchCores(b, prog, xlate.DataImage(rvProg))
	})
}

// benchCores times a fresh machine per iteration on each core: NewState,
// Load, the data image, and the run to halt.
func benchCores(b *testing.B, prog *art9.Program, data map[int]ternary.Word) {
	b.Run("pipelined", func(b *testing.B) {
		benchRun(b, func() (sim.Result, error) {
			pl := sim.NewPipeline(sim.Config{})
			if err := loadProgram(pl.S, prog, data); err != nil {
				return sim.Result{}, err
			}
			return pl.Run()
		})
	})
	b.Run("functional", func(b *testing.B) {
		benchRun(b, func() (sim.Result, error) {
			f := sim.NewFunctional(sim.Config{})
			if err := loadProgram(f.S, prog, data); err != nil {
				return sim.Result{}, err
			}
			return f.Run()
		})
	})
	b.Run("timed", func(b *testing.B) {
		benchRun(b, func() (sim.Result, error) {
			f := sim.NewFunctional(sim.Config{})
			if err := loadProgram(f.S, prog, data); err != nil {
				return sim.Result{}, err
			}
			return f.RunTimed()
		})
	})
}

// benchRun times run once per iteration and reports retired instructions
// per second of host time.
func benchRun(b *testing.B, run func() (sim.Result, error)) {
	b.ReportAllocs()
	var retired uint64
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		retired += res.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "inst/s")
}

// loadProgram loads prog into s and lays the data image over TDM, as the
// suite harness does for a translated program.
func loadProgram(s *sim.State, prog *art9.Program, data map[int]ternary.Word) error {
	if err := s.Load(prog); err != nil {
		return err
	}
	return s.TDM.SetAll(data)
}

// BenchmarkGateAnalysis measures the gate-level analyzer itself.
func BenchmarkGateAnalysis(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		an := gate.Analyze(gate.BuildART9(), gate.CNTFET32())
		gates = an.Gates
	}
	b.ReportMetric(float64(gates), "gates")
}
