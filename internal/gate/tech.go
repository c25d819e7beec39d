package gate

import "sync/atomic"

// Technology is the "property description of the design technology" input
// of Fig. 3: per-cell delay, switching energy and leakage. Values for the
// two shipped technologies are calibrated to the publications the paper
// cites — the 32 nm CNTFET ternary gate studies [7][8] and a Stratix-V
// class FPGA emulating ternary logic in binary-encoded form [27] — so the
// analyzer reproduces the operating points of Tables IV and V; see
// EXPERIMENTS.md for the calibration record.
type Technology struct {
	Name string
	// Props per cell kind.
	Props map[CellKind]CellProps
	// VoltageV is the nominal supply voltage the delay/energy tables are
	// calibrated at; Tables IV/V quote it per technology.
	VoltageV float64
	// ClkQPs and SetupPs are the sequential overheads added to every
	// register-to-register path.
	ClkQPs  float64
	SetupPs float64
	// Activity is the default switching-activity factor.
	Activity float64
	// StaticW is the device-level static power floor (FPGA core static
	// power; zero for native technologies where cell leakage is the
	// whole story).
	StaticW float64
	// IOW is the I/O + clocking overhead of the prototype board
	// (Table V includes the whole powered device).
	IOW float64
	// Memory terms for the ternary SRAM arrays [11] / block RAM.
	MemReadEnergyFJ     float64
	MemWriteEnergyFJ    float64
	MemLeakageNWPerTrit float64

	// fp holds the *fingerprintMemo of the last Fingerprint call.
	fp atomic.Value
}

// CellProps are the per-cell technology characteristics.
type CellProps struct {
	DelayPs  float64 // propagation delay
	EnergyFJ float64 // switching energy per transition
	LeakNW   float64 // static leakage
	// ALMs is the Stratix-V adaptive-logic-module cost of the
	// binary-encoded emulation of this cell (FPGA technologies only).
	ALMs float64
}

// CNTFET32 returns the 32 nm CNTFET ternary technology ([7][8]; the
// "simplified models without considering the parasitic capacitance" of
// §V-B). CNTFET ternary gates switch at sub-fJ to few-fJ energies with
// nA-class leakage, which is what makes the µW-class core of Table IV
// possible.
func CNTFET32() *Technology {
	return &Technology{
		Name: "CNTFET-32nm",
		Props: map[CellKind]CellProps{
			Input: {},
			STI:   {DelayPs: 45, EnergyFJ: 0.43, LeakNW: 6.2},
			NTI:   {DelayPs: 40, EnergyFJ: 0.39, LeakNW: 5.5},
			PTI:   {DelayPs: 40, EnergyFJ: 0.39, LeakNW: 5.5},
			TNAND: {DelayPs: 65, EnergyFJ: 0.70, LeakNW: 10.3},
			TNOR:  {DelayPs: 65, EnergyFJ: 0.70, LeakNW: 10.3},
			TAND:  {DelayPs: 85, EnergyFJ: 0.93, LeakNW: 13.8},
			TOR:   {DelayPs: 85, EnergyFJ: 0.93, LeakNW: 13.8},
			TXOR:  {DelayPs: 110, EnergyFJ: 1.24, LeakNW: 18.0},
			TMUX:  {DelayPs: 90, EnergyFJ: 1.01, LeakNW: 15.5},
			TDEC:  {DelayPs: 75, EnergyFJ: 0.85, LeakNW: 13.1},
			THA:   {DelayPs: 160, EnergyFJ: 2.0, LeakNW: 29.3},
			TFA:   {DelayPs: 230, EnergyFJ: 3.3, LeakNW: 44.8},
			TCMP:  {DelayPs: 95, EnergyFJ: 1.1, LeakNW: 16.6},
			TDFF:  {DelayPs: 0, EnergyFJ: 2.4, LeakNW: 32.8},
			TBUF:  {DelayPs: 35, EnergyFJ: 0.35, LeakNW: 4.8},
		},
		VoltageV:            0.9,
		ClkQPs:              120,
		SetupPs:             80,
		Activity:            0.08,
		MemReadEnergyFJ:     12,
		MemWriteEnergyFJ:    15,
		MemLeakageNWPerTrit: 0.4,
	}
}

// StratixVEmulation returns the FPGA technology of Table V: every ternary
// signal is a 2-bit binary pair [27], each cell a small LUT network with
// adders mapped onto the hard carry chains. Delays include average
// routing; StaticW/IOW cover the powered device beyond the datapath,
// matching how Table V quotes whole-board wattage.
func StratixVEmulation() *Technology {
	return &Technology{
		Name: "StratixV-binary-encoded",
		Props: map[CellKind]CellProps{
			Input: {},
			STI:   {DelayPs: 220, EnergyFJ: 16e3, LeakNW: 310, ALMs: 1},
			NTI:   {DelayPs: 220, EnergyFJ: 16e3, LeakNW: 310, ALMs: 1},
			PTI:   {DelayPs: 220, EnergyFJ: 16e3, LeakNW: 310, ALMs: 1},
			TNAND: {DelayPs: 240, EnergyFJ: 20e3, LeakNW: 340, ALMs: 1},
			TNOR:  {DelayPs: 240, EnergyFJ: 20e3, LeakNW: 340, ALMs: 1},
			TAND:  {DelayPs: 240, EnergyFJ: 22e3, LeakNW: 360, ALMs: 1.5},
			TOR:   {DelayPs: 240, EnergyFJ: 22e3, LeakNW: 360, ALMs: 1.5},
			TXOR:  {DelayPs: 260, EnergyFJ: 23e3, LeakNW: 380, ALMs: 1.5},
			TMUX:  {DelayPs: 250, EnergyFJ: 22e3, LeakNW: 360, ALMs: 1.5},
			TDEC:  {DelayPs: 240, EnergyFJ: 20e3, LeakNW: 340, ALMs: 1},
			THA:   {DelayPs: 300, EnergyFJ: 32e3, LeakNW: 520, ALMs: 2.2},
			TFA:   {DelayPs: 380, EnergyFJ: 47e3, LeakNW: 700, ALMs: 3},
			TCMP:  {DelayPs: 270, EnergyFJ: 25e3, LeakNW: 420, ALMs: 1.8},
			TDFF:  {DelayPs: 0, EnergyFJ: 14e3, LeakNW: 260, ALMs: 0},
			TBUF:  {DelayPs: 120, EnergyFJ: 7e3, LeakNW: 120, ALMs: 0.5},
		},
		VoltageV:            0.9,
		ClkQPs:              300,
		SetupPs:             200,
		Activity:            0.12,
		StaticW:             0.55,
		IOW:                 0.25,
		MemReadEnergyFJ:     45e3,
		MemWriteEnergyFJ:    55e3,
		MemLeakageNWPerTrit: 45,
	}
}

// props returns the cell properties, zero-valued for unknown kinds.
func (t *Technology) props(k CellKind) CellProps { return t.Props[k] }
