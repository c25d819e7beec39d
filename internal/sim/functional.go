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

// Run executes from S.PC until halt or the step budget is exhausted. The
// PC lives in a local TIM index and one effect is filled in place per
// step; S.PC is written back when Run returns.
func (f *Functional) Run() (Result, error) {
	var (
		res Result
		in  isa.Inst
		e   effect
	)
	s := f.S
	text, trf := s.text, &s.TRF
	pc := s.PC.UIndex()
	for budget := f.cfg.MaxSteps; budget > 0; budget-- {
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
		evaluate(&e, in, pc, trf[in.Ta], trf[in.Tb])
		if e.isLoad {
			v, err := s.TDM.ReadP(e.addr)
			if err != nil {
				return res, s.stop(pc, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), err))
			}
			e.val = v
			res.Loads++
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
		if e.branch {
			if e.taken {
				res.Taken++
			} else {
				res.NotTaken++
			}
		} else if e.taken {
			res.Jumps++
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
