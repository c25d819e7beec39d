package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Functional is the instruction-accurate reference core: one instruction
// per step, no micro-architecture. It defines the architectural semantics
// against which the pipelined core is verified.
type Functional struct {
	S   *State
	cfg Config
}

// NewFunctional builds a functional core over a fresh state.
func NewFunctional(cfg Config) *Functional {
	return &Functional{S: NewState(cfg), cfg: cfg.withDefaults()}
}

// pipelineFill is the number of cycles the 5-stage pipeline spends before
// its first instruction retires.
const pipelineFill = 4

// noLoad is the timed loop's "previous instruction was not a LOAD" mark:
// no decoded register field ever equals it.
const noLoad = isa.Reg(isa.NumRegs)

// Run executes from S.PC until halt or the step budget is exhausted, one
// instruction per step: Cycles == Retired, and Config.MaxSteps counts
// instructions. S.PC is written back when Run returns.
func (f *Functional) Run() (Result, error) { return f.run(false) }

// RunTimed executes like Run and times the retired stream as the pipelined
// core schedules it, so that on a program that halts its Result, its TIM
// and TDM access counts and the final TRF and TDM equal Pipeline.Run's.
// The pipeline stalls only for load-use hazards and taken transfers
// (§IV-B), so one instruction of lookback decides every stall:
//
//   - an instruction that reads, through ReadsTa or ReadsTb, the register
//     the previous instruction loaded waits one cycle (StallsLoad), the
//     halt included;
//   - every taken transfer but the halt squashes one fetch slot
//     (StallsBranch);
//   - Cycles = Retired + StallsLoad + StallsBranch + 4, the pipeline fill.
//
// Config.MaxSteps counts those cycles, as it does on the pipeline: a
// program halts within the budget exactly when Pipeline.Run's does, and
// otherwise RunTimed returns ErrNoHalt{MaxSteps} as soon as the next
// instruction cannot retire within it. Faults keep the functional core's
// texts. A run that does not halt stops at a different point than the
// pipeline, so its Result and state are not the pipeline's.
func (f *Functional) RunTimed() (Result, error) { return f.run(true) }

// run is the functional core's one loop. The PC lives in a local TIM index
// and one effect is filled in place per step. With timed set it also
// charges the pipeline's stall and squash cycles to res and to the budget;
// that work sits behind a check of loaded and inside the LOAD and
// taken-transfer branches, where an untimed step skips it.
func (f *Functional) run(timed bool) (Result, error) {
	var (
		res Result
		in  isa.Inst
		e   effect
	)
	s := f.S
	text, trf := s.text, &s.TRF
	pc := s.PC.UIndex()
	budget := f.cfg.MaxSteps
	loaded := noLoad // register the previous instruction loaded; set only when timed
	if timed {
		res.Cycles = pipelineFill
		budget -= pipelineFill
	}
	for ; budget > 0; budget-- {
		if uint(pc) < uint(len(text)) {
			s.TIM.CountRead()
			in = text[pc]
		} else {
			var fault, illegal error
			if in, fault, illegal = s.fetch(pc); fault != nil {
				return res, s.stop(pc, fmt.Errorf("sim: fetch at PC=%d: %w", ternary.PackedFromInt(pc).Int(), fault))
			} else if illegal != nil {
				return res, s.stop(pc, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), illegal))
			}
		}
		if loaded != noLoad && (in.Ta == loaded && in.Op.ReadsTa() || in.Tb == loaded && in.Op.ReadsTb()) {
			// Load-use hazard: the pipeline holds this instruction in ID
			// for one cycle.
			res.StallsLoad++
			res.Cycles++
			if budget--; budget == 0 {
				break
			}
		}
		loaded = noLoad
		evaluate(&e, in, pc, trf[in.Ta], trf[in.Tb])
		if e.isLoad {
			v, err := s.TDM.ReadP(e.addr)
			if err != nil {
				return res, s.stop(pc, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), err))
			}
			e.val = v
			res.Loads++
			if timed {
				loaded = e.reg
			}
		}
		if e.isStore {
			if err := s.TDM.WriteP(e.addr, e.store); err != nil {
				return res, s.stop(pc, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), err))
			}
			res.Stores++
		}
		// The halt retires like any other instruction, so its opcode
		// counts toward the mix — otherwise ΣOpMix < 1 and the
		// switching-activity profile under-reports the datapath.
		res.ByCategory[in.Op.Category()]++
		res.ByOp[in.Op]++
		res.Cycles++
		res.Retired++
		if e.isHalt(pc) {
			res.HaltPC = pc
			return res, s.stop(pc, nil)
		}
		if e.writesReg {
			writeReg(trf, e.reg, e.val)
		}
		if e.taken {
			if e.branch {
				res.Taken++
			} else {
				res.Jumps++
			}
			if timed { // the squashed fetch slot behind the transfer
				res.StallsBranch++
				res.Cycles++
				budget--
			}
		} else if e.branch {
			res.NotTaken++
		}
		pc = e.next
	}
	return res, s.stop(pc, ErrNoHalt{f.cfg.MaxSteps})
}

// writeReg stores v in trf[r] as two 32-bit moves. evaluate has just
// stored v's planes separately, and a plain struct copy compiles to one
// 64-bit load spanning both stores, which the store buffer cannot forward:
// that stall cost about a quarter of a functional step. Masking P, a no-op
// on a valid word, keeps the compiler from fusing the two moves.
func writeReg(trf *[isa.NumRegs]ternary.Packed, r isa.Reg, v ternary.Packed) {
	trf[r] = ternary.Packed{N: v.N, P: v.P & ternary.PlaneMask}
}
