package sim

import "fmt"

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

// Step executes a single instruction. It returns done=true when the core
// retires a halt (jump-to-self).
func (f *Functional) Step(res *Result) (done bool, err error) {
	s := f.S
	in, fault, illegal := s.fetch(s.PC.UIndex())
	if fault != nil {
		return false, fmt.Errorf("sim: fetch at PC=%d: %w", s.PC.Int(), fault)
	}
	if illegal != nil {
		return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), illegal)
	}
	e := evaluate(in, s.PC, s.TRF[in.Ta], s.TRF[in.Tb])
	if e.isLoad {
		v, err := s.TDM.ReadP(e.addr.UIndex())
		if err != nil {
			return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
		}
		e.val = v
		res.Loads++
	}
	if e.isStore {
		if err := s.TDM.WriteP(e.addr.UIndex(), e.store); err != nil {
			return false, fmt.Errorf("sim: at PC=%d: %w", s.PC.Int(), err)
		}
		res.Stores++
	}
	if e.isHalt(s.PC) {
		res.HaltPC = s.PC.UIndex()
		res.Cycles++
		res.Retired++
		// The halt retires like any other instruction, so its opcode
		// counts toward the mix — otherwise ΣOpMix < 1 and the
		// switching-activity profile under-reports the datapath.
		res.ByCategory[in.Op.Category()]++
		res.ByOp[in.Op]++
		return true, nil
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
	res.ByCategory[in.Op.Category()]++
	res.ByOp[in.Op]++
	res.Cycles++
	res.Retired++
	s.PC = e.nextPC
	return false, nil
}

// Run executes until halt or the step budget is exhausted.
func (f *Functional) Run() (Result, error) {
	var res Result
	for steps := 0; steps < f.cfg.MaxSteps; steps++ {
		done, err := f.Step(&res)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
	}
	return res, ErrNoHalt{f.cfg.MaxSteps}
}
