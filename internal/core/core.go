// Package core composes the paper's two contributions into the high-level
// API the rest of the repository (and the public art9 facade) builds on:
//
//   - SoftwareFramework — the software-level compiling framework of §III-A
//     (Fig. 2): RV32 assembly in, verified ART-9 ternary assembly out.
//   - HardwareFramework — the hardware-level evaluation framework of
//     §III-B (Fig. 3): cycle-accurate simulation, gate-level analysis
//     against a technology description, and performance estimation.
package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/perf"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// SoftwareFramework is the compiling pipeline of Fig. 2.
type SoftwareFramework struct {
	// Options tune the instruction-mapping phase.
	Options xlate.Options
}

// CompileResult is the output of the software-level framework.
type CompileResult struct {
	// Binary is the assembled RV32 input program.
	Binary *rv32.Program
	// Ternary is the generated ART-9 assembly and its metadata.
	Ternary *xlate.Output
	// Program is the assembled ART-9 program (TIM image).
	Program *asm.Program
	// Data is the TDM initialisation derived from the RV32 data image.
	Data map[int]ternary.Word
}

// Compile runs the full pipeline on RV32 assembly source: binary assembly
// → instruction mapping → operand conversion → redundancy checking →
// ternary assembly.
func (f *SoftwareFramework) Compile(rvSource string) (*CompileResult, error) {
	binProg, err := rv32.Assemble(rvSource)
	if err != nil {
		return nil, fmt.Errorf("core: binary front end: %w", err)
	}
	out, err := xlate.Translate(binProg, f.Options)
	if err != nil {
		return nil, fmt.Errorf("core: translation: %w", err)
	}
	ternProg, err := asm.Build(out.Lines)
	if err != nil {
		return nil, fmt.Errorf("core: ternary back end: %w", err)
	}
	return &CompileResult{
		Binary:  binProg,
		Ternary: out,
		Program: ternProg,
		Data:    xlate.DataImage(binProg),
	}, nil
}

// HardwareFramework is the evaluation pipeline of Fig. 3.
type HardwareFramework struct {
	// Tech is the technology property description; nil selects the
	// CNTFET model of Table IV.
	Tech *gate.Technology
	// FreqMHz is the operating frequency; 0 means the analyzed fmax.
	FreqMHz float64
	// MemWords sizes TIM and TDM for the power model (0: full space,
	// whose leakage term is then omitted as off-datapath).
	MemWords int
	// Config sizes the simulated machine.
	Config sim.Config
}

// Evaluation is the combined output of the hardware-level framework.
type Evaluation struct {
	Cycles   sim.Result
	Analysis *gate.Analysis
	Impl     perf.Implementation
}

// Evaluate runs the assembled program on the pipelined ART-9 core, then
// feeds the cycle count, the run's memory-access rate and the gate-level
// analysis into the performance estimator — the inputs bench.ImplFor
// takes from a suite job. iterations scales the Dhrystone-style
// per-iteration metrics (pass 1 for plain programs).
func (f *HardwareFramework) Evaluate(p *asm.Program, data map[int]ternary.Word, iterations int) (*Evaluation, error) {
	tech := f.Tech
	if tech == nil {
		tech = gate.CNTFET32()
	}
	pl := sim.NewPipeline(f.Config)
	if err := pl.S.Load(p); err != nil {
		return nil, err
	}
	if data != nil {
		if err := pl.S.TDM.SetAll(data); err != nil {
			return nil, err
		}
	}
	res, err := pl.Run()
	if err != nil {
		return nil, fmt.Errorf("core: cycle-accurate simulation: %w", err)
	}

	// The ART-9 netlist analysis depends only on the technology, so it
	// is served from the engine's shared memoization cache; repeated
	// evaluations re-simulate but never re-analyze. The cache entry is
	// shared process-wide, so hand the caller its own copy — Evaluation
	// has always been safe to mutate.
	cached := engine.AnalyzeART9(tech)
	an := &gate.Analysis{}
	*an = *cached
	an.Histogram = make(map[gate.CellKind]int, len(cached.Histogram))
	for k, v := range cached.Histogram {
		an.Histogram[k] = v
	}
	if iterations < 1 {
		iterations = 1
	}
	memTrits, ramBits := 0, 0
	if f.MemWords > 0 {
		memTrits = 2 * f.MemWords * ternary.WordTrits
		ramBits = memTrits * ternary.BitsPerTrit
	}
	impl := perf.Estimate(an, tech, f.FreqMHz, float64(res.Cycles)/float64(iterations),
		memTrits, perf.MemAccessRate(res.Retired, res.Loads, res.Stores, res.Cycles), ramBits)
	return &Evaluation{Cycles: res, Analysis: an, Impl: impl}, nil
}

// RunFunctional executes a program on the functional reference core and
// returns the final state alongside the run statistics — the quick
// verification path of the framework.
func RunFunctional(p *asm.Program, data map[int]ternary.Word, cfg sim.Config) (*sim.State, sim.Result, error) {
	fn := sim.NewFunctional(cfg)
	if err := fn.S.Load(p); err != nil {
		return nil, sim.Result{}, err
	}
	if data != nil {
		if err := fn.S.TDM.SetAll(data); err != nil {
			return nil, sim.Result{}, err
		}
	}
	res, err := fn.Run()
	return fn.S, res, err
}
