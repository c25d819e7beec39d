package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Pipeline is the cycle-accurate 5-stage pipelined ART-9 core of §IV-B and
// Fig. 4 of the paper: IF → ID → EX → MEM → WB with
//
//   - a hazard detection unit (HDU) in ID comparing adjacent instructions,
//   - full forwarding into the operand read (EX results same-cycle for the
//     ID-stage branch-condition/target datapath, MEM and WB results via the
//     forwarding multiplexers), so ALU-use hazards never stall,
//   - branch-target calculation and condition checking in ID, redirecting
//     the PC directly, so a taken control transfer squashes exactly the one
//     slot behind it,
//   - stalls inserted only for load-use hazards and taken transfers,
//     matching the paper's "we only observe the hardware-inserted stall
//     cycles when there exist load-use data hazards and taken branches".
//
// The model executes real values through the stage latches; tests verify
// that its final architectural state equals the functional core's.
type Pipeline struct {
	S   *State
	cfg Config

	// Trace, if non-nil, receives a one-line description of every cycle.
	Trace func(cycle uint64, line string)
}

// NewPipeline builds a pipelined core over a fresh state.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{S: NewState(cfg), cfg: cfg.withDefaults()}
}

// latchIFID carries a fetched instruction into decode.
type latchIFID struct {
	valid bool
	pc    ternary.Packed
	inst  isa.Inst
}

// latchIDEX carries a decoded instruction with its effect, evaluated in
// ID from the forwarded operands. Those operands are final there (a
// load-use hazard stalls instead of forwarding), so EX reuses the effect
// rather than evaluating the instruction a second time.
type latchIDEX struct {
	valid bool
	inst  isa.Inst
	eff   effect
	halt  bool // this instruction is the halt transfer
}

// latchEXMEM carries the computed effect.
type latchEXMEM struct {
	valid bool
	inst  isa.Inst
	eff   effect
	halt  bool
}

// latchMEMWB carries the writeback value.
type latchMEMWB struct {
	valid bool
	inst  isa.Inst
	eff   effect // val filled for loads
	halt  bool
}

// Run executes the loaded program cycle by cycle until the halt
// instruction leaves writeback.
func (p *Pipeline) Run() (Result, error) {
	var (
		res   Result
		ifid  latchIFID
		idex  latchIDEX
		exmem latchEXMEM
		memwb latchMEMWB

		fetchPC   = p.S.PC
		stopFetch bool // halt observed in ID: stop issuing new work
	)

	for cycle := 0; cycle < p.cfg.MaxSteps; cycle++ {
		res.Cycles++

		// Pre-shift snapshots: the instruction each stage is working on
		// THIS cycle, for the trace line rendered at the cycle's end.
		idS, exS, memS, wbS := ifid, idex, exmem, memwb

		// ---- WB: retire memwb (first half of cycle: write TRF).
		if memwb.valid {
			e := memwb.eff
			if memwb.halt {
				// The halt idiom has no architectural effect beyond
				// parking the PC at its own address, but it retires
				// like any other instruction, so its opcode counts
				// toward the mix (ΣOpMix must reach 1).
				res.Retired++
				res.ByCategory[memwb.inst.Op.Category()]++
				res.ByOp[memwb.inst.Op]++
				p.S.PC = e.nextPC
				res.HaltPC = e.nextPC.UIndex()
				return res, nil
			}
			if e.writesReg {
				p.S.TRF[e.reg] = e.val
			}
			res.Retired++
			res.ByCategory[memwb.inst.Op.Category()]++
			res.ByOp[memwb.inst.Op]++
			if e.branch {
				if e.taken {
					res.Taken++
				} else {
					res.NotTaken++
				}
			} else if e.taken {
				res.Jumps++
			}
		}
		memwb = latchMEMWB{}

		// ---- MEM: TDM access for exmem.
		if exmem.valid {
			e := exmem.eff
			if e.isLoad {
				v, err := p.S.TDM.ReadP(e.addr.UIndex())
				if err != nil {
					return res, fmt.Errorf("sim: MEM: %w", err)
				}
				e.val = v
				res.Loads++
			}
			if e.isStore {
				if err := p.S.TDM.WriteP(e.addr.UIndex(), e.store); err != nil {
					return res, fmt.Errorf("sim: MEM: %w", err)
				}
				res.Stores++
			}
			memwb = latchMEMWB{valid: true, inst: exmem.inst, eff: e, halt: exmem.halt}
		}
		exmem = latchEXMEM{}

		// ---- EX: pass on the effect computed from the operands resolved in ID.
		if idex.valid {
			exmem = latchEXMEM{valid: true, inst: idex.inst, eff: idex.eff, halt: idex.halt}
		}
		idex = latchIDEX{}

		// ---- ID: hazard detection, forwarding, branch resolution.
		redirect := false
		var redirectPC ternary.Packed
		stalled := false
		if ifid.valid {
			in := ifid.inst
			// Load-use hazard: the instruction now entering EX (exmem
			// was just filled from idex — but that is this cycle's EX;
			// the HDU compares ID against the instruction in EX).
			if exmem.valid && exmem.eff.isLoad && exmem.eff.writesReg {
				r := exmem.eff.reg
				if (in.Op.ReadsTa() && in.Ta == r) || (in.Op.ReadsTb() && in.Tb == r) {
					stalled = true
					res.StallsLoad++
				}
			}
			if !stalled {
				ta := p.forward(in.Ta, exmem, memwb)
				tb := p.forward(in.Tb, exmem, memwb)
				e := evaluate(in, ifid.pc, ta, tb)
				halt := e.isHalt(ifid.pc)
				idex = latchIDEX{valid: true, inst: in, eff: e, halt: halt}
				if halt {
					stopFetch = true
				} else if e.taken {
					redirect = true
					redirectPC = e.nextPC
					res.StallsBranch++
				}
			}
		}

		// ---- IF: fetch into ifid unless stalled or draining.
		var ifS latchIFID // what IF fetched this cycle (for the trace)
		if stalled {
			// ifid retained; the bubble naturally flows from idex being
			// empty next cycle.
		} else if redirect {
			ifid = latchIFID{} // squash the wrong-path fetch
			fetchPC = redirectPC
		} else if stopFetch {
			ifid = latchIFID{}
		} else {
			w, err := p.S.TIM.ReadP(fetchPC.UIndex())
			if err != nil {
				return res, fmt.Errorf("sim: IF at PC=%d: %w", fetchPC.Int(), err)
			}
			in, err := isa.DecodePacked(w)
			if err != nil {
				return res, fmt.Errorf("sim: IF at PC=%d: %w", fetchPC.Int(), err)
			}
			ifid = latchIFID{valid: true, pc: fetchPC, inst: in}
			fetchPC = fetchPC.Inc()
			ifS = ifid
		}

		if p.Trace != nil {
			p.Trace(res.Cycles, p.traceLine(ifS, idS, exS, memS, wbS, stalled, redirect))
		}
	}
	return res, ErrNoHalt{p.cfg.MaxSteps}
}

// forward resolves the value of register r as seen by the instruction in
// ID: the newest in-flight producer wins (EX this cycle, then MEM, then
// WB); otherwise the register file. The load-use stall rule guarantees
// that an EX-stage LOAD is never selected here.
func (p *Pipeline) forward(r isa.Reg, exmem latchEXMEM, memwb latchMEMWB) ternary.Packed {
	if exmem.valid && exmem.eff.writesReg && exmem.eff.reg == r && !exmem.eff.isLoad {
		return exmem.eff.val
	}
	if memwb.valid && memwb.eff.writesReg && memwb.eff.reg == r {
		return memwb.eff.val
	}
	return p.S.TRF[r]
}

// traceLine renders one cycle of the schedule. Every column shows the
// instruction the stage worked on during this cycle — the pre-shift latch
// contents snapshotted at the top of the loop, plus the instruction IF
// fetched — so the five columns line up with the textbook pipeline diagram
// rather than trailing a stage behind.
func (p *Pipeline) traceLine(ifS latchIFID, idS latchIFID, exS latchIDEX, memS latchEXMEM, wbS latchMEMWB, stalled, redirect bool) string {
	stage := func(valid bool, in isa.Inst) string {
		if !valid {
			return "-"
		}
		return in.String()
	}
	flags := ""
	if stalled {
		flags += " [stall]"
	}
	if redirect {
		flags += " [redirect]"
	}
	return fmt.Sprintf("IF:%-18s ID:%-18s EX:%-18s MEM:%-18s WB:%-18s%s",
		stage(ifS.valid, ifS.inst), stage(idS.valid, idS.inst),
		stage(exS.valid, exS.inst), stage(memS.valid, memS.inst),
		stage(wbS.valid, wbS.inst), flags)
}
