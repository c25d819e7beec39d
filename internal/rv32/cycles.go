package rv32

// Trace-driven cycle models of the two baseline cores of Tables II/III.
// Both attach to the Machine as Observers, so a single architectural run
// produces every baseline's cycle count.

// CycleModel is an Observer that accumulates a cycle count.
type CycleModel interface {
	Observer
	TotalCycles() uint64
}

// VexRiscvModel approximates the VexRiscv core at its small interlocked
// operating point (the ≈0.65 DMIPS/MHz configuration the paper cites):
// a 5-stage in-order pipeline *without* a bypass network, so a consumer
// stalls in decode until its producer reaches writeback (write-first
// register file: a producer decoded at cycle t is readable at t+3), plus a
// flush penalty for every taken control transfer (branches resolve in EX).
type VexRiscvModel struct {
	// BranchPenalty is the flush cost of a taken transfer.
	BranchPenalty uint64
	// MulExtra/DivExtra are the additional EX-occupancy cycles of the
	// iterative multiplier/divider options (Table II marks VexRiscv as
	// having a multiplier).
	MulExtra uint64
	DivExtra uint64

	t       uint64 // decode cycle of the most recently retired instruction
	ready   [NumRegs]uint64
	started bool
}

// NewVexRiscvModel returns the model with the small-config parameters.
func NewVexRiscvModel() *VexRiscvModel {
	return &VexRiscvModel{BranchPenalty: 2, MulExtra: 4, DivExtra: 33}
}

// Retire implements Observer.
func (v *VexRiscvModel) Retire(in Inst, taken bool, _ uint32) {
	t := v.t + 1
	if !v.started {
		v.started = true
		t = 1
	}
	c := &opClasses[in.Op]
	// Interlock until each source's producer reaches writeback.
	if c.readsRs1 && in.Rs1 != 0 && v.ready[in.Rs1] > t {
		t = v.ready[in.Rs1]
	}
	if c.readsRs2 && in.Rs2 != 0 && v.ready[in.Rs2] > t {
		t = v.ready[in.Rs2]
	}
	switch c.exec {
	case execMul:
		t += v.MulExtra
	case execDiv:
		t += v.DivExtra
	}
	if c.writesRd && in.Rd != 0 {
		v.ready[in.Rd] = t + 3
	}
	if taken || c.jump {
		t += v.BranchPenalty
	}
	v.t = t
}

// TotalCycles returns decode-slot cycles plus the pipeline drain.
func (v *VexRiscvModel) TotalCycles() uint64 {
	if !v.started {
		return 0
	}
	return v.t + 4
}

// PicoRV32Model applies the per-instruction cycle costs from the PicoRV32
// documentation (non-pipelined, multi-cycle; CPI ≈ 4, ≈0.31 DMIPS/MHz on
// Dhrystone with the dual-port register file and fast-multiply options the
// paper's RV32IM configuration implies).
type PicoRV32Model struct {
	Cycles uint64

	// Cost table, overridable for ablation studies.
	ALU, Load, Store, BranchTaken, BranchNot, Jump, Jalr, ShiftBase, Mul, Div uint64
	// SerialShift, when true, adds one cycle per shifted bit (the
	// BARREL_SHIFTER=0 configuration).
	SerialShift bool
}

// NewPicoRV32Model returns the documented default timing: the sequential
// ENABLE_MUL multiplier (~35 cycles) rather than the DSP-based fast
// multiply — the configuration consistent with the paper's Table III GEMM
// ratio (see EXPERIMENTS.md); switch Mul to ≈4 for the ENABLE_FAST_MUL
// ablation.
func NewPicoRV32Model() *PicoRV32Model {
	return &PicoRV32Model{
		ALU: 3, Load: 5, Store: 5,
		BranchTaken: 5, BranchNot: 3,
		Jump: 3, Jalr: 6,
		ShiftBase: 3, SerialShift: false,
		Mul: 35, Div: 40,
	}
}

// Retire implements Observer. The cost fields are read on every call,
// so an ablation that edits them between runs takes effect.
func (p *PicoRV32Model) Retire(in Inst, taken bool, shamt uint32) {
	switch opClasses[in.Op].exec {
	case execJAL:
		p.Cycles += p.Jump
	case execJALR:
		p.Cycles += p.Jalr
	case execBranch:
		if taken {
			p.Cycles += p.BranchTaken
		} else {
			p.Cycles += p.BranchNot
		}
	case execLoad:
		p.Cycles += p.Load
	case execStore:
		p.Cycles += p.Store
	case execMul:
		p.Cycles += p.Mul
	case execDiv:
		p.Cycles += p.Div
	case execShift:
		p.Cycles += p.ShiftBase
		if p.SerialShift {
			p.Cycles += uint64(shamt)
		}
	default:
		p.Cycles += p.ALU
	}
}

// TotalCycles implements CycleModel.
func (p *PicoRV32Model) TotalCycles() uint64 { return p.Cycles }

var (
	_ CycleModel = (*VexRiscvModel)(nil)
	_ CycleModel = (*PicoRV32Model)(nil)
)
