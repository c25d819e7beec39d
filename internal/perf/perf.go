// Package perf implements the performance estimator of the hardware-level
// evaluation framework (§III-B, Fig. 3): it joins the cycle-accurate
// simulator's counts with the gate-level analyzer's timing/power results
// into the implementation-aware metrics the paper reports — Dhrystone
// DMIPS, DMIPS/MHz (Table II) and DMIPS/W (Tables IV and V).
package perf

import (
	"fmt"

	"repro/internal/gate"
)

// DhrystoneDivisor converts Dhrystones/second into DMIPS: the VAX 11/780
// reference executed 1757 Dhrystones/second ([23]).
const DhrystoneDivisor = 1757.0

// DMIPSPerMHz returns the frequency-normalised Dhrystone rating for a
// core that needs cyclesPerIteration clock cycles per Dhrystone loop.
func DMIPSPerMHz(cyclesPerIteration float64) float64 {
	if cyclesPerIteration <= 0 {
		return 0
	}
	return 1e6 / (DhrystoneDivisor * cyclesPerIteration)
}

// DMIPS returns the absolute Dhrystone rating at freqMHz.
func DMIPS(freqMHz, cyclesPerIteration float64) float64 {
	return DMIPSPerMHz(cyclesPerIteration) * freqMHz
}

// DMIPSPerWatt returns the efficiency metric of Tables IV and V.
func DMIPSPerWatt(freqMHz, cyclesPerIteration, powerW float64) float64 {
	if powerW <= 0 {
		return 0
	}
	return DMIPS(freqMHz, cyclesPerIteration) / powerW
}

// MemAccessRate returns a run's TIM+TDM word accesses (a fetch per
// retired instruction, loads, stores) per cycle, or 1 for no cycles.
func MemAccessRate(retired, loads, stores, cycles uint64) float64 {
	if cycles == 0 {
		return 1
	}
	return (float64(retired) + float64(loads+stores)) / float64(cycles)
}

// CoreRow is one column of Table II.
type CoreRow struct {
	Name         string
	ISA          string
	Instructions int
	Stages       int
	Multiplier   bool
	DMIPSPerMHz  float64
	MemoryCells  int    // instruction-memory cells for the Dhrystone image
	CellUnit     string // "trits" or "bits"
}

// FormatCell renders the memory-cell figure the way the paper does
// ("11.6K trits").
func (r CoreRow) FormatCell() string {
	return fmt.Sprintf("%.1fK %s", float64(r.MemoryCells)/1000, r.CellUnit)
}

// Implementation is a Table IV/V style implementation summary for the
// ART-9 core in one technology.
type Implementation struct {
	Tech      string
	VoltageV  float64
	FreqMHz   float64
	Gates     int // Table IV: standard ternary cells
	ALMs      int // Table V
	Registers int // Table V
	RAMBits   int // Table V
	PowerW    float64
	DMIPS     float64
	DMIPSPerW float64
}

// Estimate builds the implementation summary from the analyzer output,
// the chosen operating frequency (0 → fmax), Dhrystone cycles per
// iteration, and the memory configuration.
func Estimate(an *gate.Analysis, tech *gate.Technology, freqMHz, cyclesPerIter float64, memTrits int, memAccessPerCycle float64, ramBits int) Implementation {
	if freqMHz <= 0 {
		freqMHz = an.FmaxMHz
	}
	p := an.PowerW(tech, freqMHz, memTrits, memAccessPerCycle)
	return Implementation{
		Tech:      an.Tech,
		VoltageV:  tech.VoltageV,
		FreqMHz:   freqMHz,
		Gates:     an.Gates,
		ALMs:      an.ALMs,
		Registers: an.Registers,
		RAMBits:   ramBits,
		PowerW:    p,
		DMIPS:     DMIPS(freqMHz, cyclesPerIter),
		DMIPSPerW: DMIPSPerWatt(freqMHz, cyclesPerIter, p),
	}
}
