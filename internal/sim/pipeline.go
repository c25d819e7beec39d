package sim

import (
	"errors"
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
	pc    int // TIM index of inst
	inst  isa.Inst
}

// latch is a pipeline register behind decode: ID/EX, EX/MEM or MEM/WB. ID
// evaluates the instruction's effect from the forwarded operands. Those
// operands are final there (a load-use hazard stalls instead of
// forwarding), so the effect travels unchanged to WB except that MEM
// fills in a loaded value. Run keeps the three registers in one array and
// advances the pipeline by rotating pointers to them.
type latch struct {
	valid bool
	halt  bool // this instruction is the halt transfer
	inst  isa.Inst
	eff   effect
}

// Run executes the loaded program cycle by cycle until the halt
// instruction leaves writeback. S.PC is then the halt address; after a
// fault, or when the cycle budget runs out, it is the fetch PC.
func (p *Pipeline) Run() (Result, error) {
	var (
		res  Result
		s    = p.S
		text = s.text
		ifid latchIFID

		latches            [3]latch
		idex, exmem, memwb = &latches[0], &latches[1], &latches[2]

		fetchPC   = s.PC.UIndex()
		stopFetch bool // halt observed in ID: stop issuing new work

		trace = p.Trace
		// Trace only: what each stage works on this cycle (see traceLine).
		ifS, idS       latchIFID
		exS, memS, wbS latch
	)

	for cycle := 0; cycle < p.cfg.MaxSteps; cycle++ {
		res.Cycles++

		// Pre-shift snapshots: the instruction each stage is working on
		// THIS cycle, for the trace line rendered at the cycle's end.
		// Untraced they would be dead copies, so take them only when tracing.
		if trace != nil {
			ifS, idS, exS, memS, wbS = latchIFID{}, ifid, *idex, *exmem, *memwb
		}

		// ---- WB: retire memwb (first half of cycle: write TRF).
		if memwb.valid {
			e := &memwb.eff
			res.Retired++
			res.ByOp[memwb.inst.Op]++
			if memwb.halt {
				// The halt idiom has no architectural effect beyond
				// parking the PC at its own address, but it retires
				// like any other instruction, so its opcode counts
				// toward the mix (ΣOpMix must reach 1).
				res.HaltPC = e.next
				return s.stop(&res, e.next, nil)
			}
			if e.writesReg {
				s.TRF[e.reg] = e.val
			}
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

		// ---- MEM: TDM access for exmem; a load fills in its value.
		if exmem.valid {
			e := &exmem.eff
			if e.isLoad {
				v, err := s.TDM.ReadP(e.addr)
				if err != nil {
					return s.stop(&res, fetchPC, fmt.Errorf("sim: MEM: %w", err))
				}
				e.val = v
				res.Loads++
			}
			if e.isStore {
				if err := s.TDM.WriteP(e.addr, e.store); err != nil {
					return s.stop(&res, fetchPC, fmt.Errorf("sim: MEM: %w", err))
				}
				res.Stores++
			}
		}

		// ---- EX: the effect computed from the operands resolved in ID
		// passes on as is. Advance: EX/MEM moves to MEM/WB, ID/EX to
		// EX/MEM, and the retired register is reused, empty, as ID/EX.
		memwb, exmem, idex = exmem, idex, memwb
		idex.valid = false

		// ---- ID: hazard detection, forwarding, branch resolution.
		redirect := false
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
				evaluate(&idex.eff, in, ifid.pc, ta, tb)
				idex.valid, idex.inst = true, in
				idex.halt = idex.eff.isHalt(ifid.pc)
				if idex.halt {
					stopFetch = true
				} else if idex.eff.taken {
					redirect = true
					res.StallsBranch++
				}
			}
		}

		// ---- IF: fetch into ifid unless stalled or draining.
		switch {
		case stalled:
			// ifid retained; the bubble naturally flows from idex being
			// empty next cycle.
		case redirect:
			ifid.valid = false // squash the wrong-path fetch
			fetchPC = idex.eff.next
		case stopFetch:
			ifid.valid = false
		default:
			if uint(fetchPC) < uint(len(text)) {
				s.TIM.CountRead()
				ifid.inst = text[fetchPC]
			} else {
				in, fault, illegal := s.fetch(fetchPC)
				if fault != nil || illegal != nil {
					// Only one is set; both get the same IF fault text.
					return s.stop(&res, fetchPC, fmt.Errorf("sim: IF at PC=%d: %w",
						ternary.PackedFromInt(fetchPC).Int(), errors.Join(fault, illegal)))
				}
				ifid.inst = in
			}
			ifid.valid, ifid.pc = true, fetchPC
			fetchPC = incIndex(fetchPC)
			if trace != nil {
				ifS = ifid // what IF fetched this cycle
			}
		}

		if trace != nil {
			trace(res.Cycles, p.traceLine(ifS, idS, exS, memS, wbS, stalled, redirect))
		}
	}
	return s.stop(&res, fetchPC, ErrNoHalt{p.cfg.MaxSteps})
}

// forward resolves the value of register r as seen by the instruction in
// ID: the newest in-flight producer wins (EX this cycle, then MEM, then
// WB); otherwise the register file. The load-use stall rule guarantees
// that an EX-stage LOAD is never selected here.
func (p *Pipeline) forward(r isa.Reg, exmem, memwb *latch) ternary.Packed {
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
func (p *Pipeline) traceLine(ifS, idS latchIFID, exS, memS, wbS latch, stalled, redirect bool) string {
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
