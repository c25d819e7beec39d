package rv32

// Trace-driven cycle models of the two baseline cores of Tables II/III.
// Both attach to the Machine through Observe, so a single architectural
// run produces every baseline's cycle count. The machine's run loop steps
// the VexRiscv model per instruction and charges the PicoRV32 model, whose
// cost is additive, from a tally when the run stops; each model's Retire
// is the same accounting for one instruction.

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

	t     uint64 // decode cycle of the most recently retired instruction
	ready [NumRegs]uint64
}

// NewVexRiscvModel returns the model with the small-config parameters.
func NewVexRiscvModel() *VexRiscvModel {
	return &VexRiscvModel{BranchPenalty: 2, MulExtra: 4, DivExtra: 33}
}

func (v *VexRiscvModel) attach(m *Machine) { m.vex = v }

// Retire advances the model past one retired instruction, for a caller
// that steps a program itself; taken reports a branch's outcome.
func (v *VexRiscvModel) Retire(in Inst, taken bool, _ uint32) {
	v.step(&opClasses[in.Op], in, taken)
}

// step advances the model past one retired instruction in of class c.
// The run loop calls it with the class it has already read, and it is
// small enough to be inlined there.
func (v *VexRiscvModel) step(c *opClass, in Inst, taken bool) {
	t := v.t + 1 // the first instruction decodes at cycle 1
	// Interlock until each source's producer reaches writeback. ready[0]
	// is never set, so x0 never interlocks.
	if c.readsRs1 {
		t = max(t, v.ready[in.Rs1])
	}
	if c.readsRs2 {
		t = max(t, v.ready[in.Rs2])
	}
	if c.exec == execMul {
		t += v.MulExtra
	} else if c.exec == execDiv {
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

// TotalCycles returns decode-slot cycles plus the pipeline drain, or 0
// before the first instruction: every step leaves t at 1 or more.
func (v *VexRiscvModel) TotalCycles() uint64 {
	if v.t == 0 {
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

func (p *PicoRV32Model) attach(m *Machine) { m.picos = append(m.picos, p) }

// Retire charges one retired instruction, for a caller that steps a
// program itself; taken reports a branch's outcome and shamt the
// effective shift amount.
func (p *PicoRV32Model) Retire(in Inst, taken bool, shamt uint32) {
	var t tally
	t.add(&opClasses[in.Op], taken, shamt)
	p.charge(&t)
}

// charge adds the cycles of the instructions t counts. It reads the cost
// fields when called, so an ablation that edits them between runs takes
// effect from the next run on.
func (p *PicoRV32Model) charge(t *tally) {
	n := &t.class
	c := n[execALU]*p.ALU + n[execJAL]*p.Jump + n[execJALR]*p.Jalr +
		t.taken*p.BranchTaken + t.notTaken*p.BranchNot +
		n[execLoad]*p.Load + n[execStore]*p.Store +
		n[execMul]*p.Mul + n[execDiv]*p.Div + n[execShift]*p.ShiftBase
	if p.SerialShift {
		c += t.shifted
	}
	p.Cycles += c
}

// TotalCycles returns the cycles charged so far.
func (p *PicoRV32Model) TotalCycles() uint64 { return p.Cycles }

// tally counts what a stretch of retired instructions costs the PicoRV32
// model: the instructions of each execution class, the conditional
// branches by outcome, and the sum of the shift amounts.
type tally struct {
	class           [numExecClasses]uint64
	taken, notTaken uint64
	shifted         uint64
}

// add counts one retired instruction of class c.
func (t *tally) add(c *opClass, taken bool, shamt uint32) {
	t.class[c.exec]++
	t.shifted += uint64(shamt)
	if c.exec == execBranch {
		if taken {
			t.taken++
		} else {
			t.notTaken++
		}
	}
}

// retired returns the number of instructions t counts.
func (t *tally) retired() uint64 {
	var n uint64
	for _, k := range t.class {
		n += k
	}
	return n
}
