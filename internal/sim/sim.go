// Package sim is the cycle-accurate simulator of the hardware-level
// evaluation framework (§III-B, Fig. 3 of the paper). It provides two
// models of the ART-9 core:
//
//   - a functional reference core (Functional) that retires one
//     instruction per step with the architectural semantics of Table I, and
//   - the 5-stage pipelined core of §IV-B (Pipeline) with the hazard
//     detection unit, forwarding multiplexers and ID-stage branch
//     resolution, whose only stall sources are load-use hazards and taken
//     control transfers — exactly the behaviour the paper reports.
//
// Both consume the assembler's output and produce run results (cycle and
// instruction counts, stall accounting, final architectural state) that
// the performance estimator (internal/perf) turns into DMIPS figures.
//
// The two cores share no dispatch code. The functional core executes
// Table I inline, one switch on the opcode per step; the pipeline computes
// each instruction's effect in evaluate, its EX stage. Each core is thus
// an independent oracle for the other: the tests hold them equal one
// instruction at a time and over whole programs.
//
// Because the pipeline stalls only on those two hazards, its whole Result
// follows from the retired stream with one instruction of lookback.
// Functional.RunTimed derives it that way on the functional core's loop,
// and the benchmark suite reports from that run; Pipeline stays the
// cycle-accurate reference (per-cycle traces, art9.Run, the hardware
// framework), and the tests hold the two equal.
package sim

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
	"repro/internal/tmem"
)

// DefaultMemWords is the default TIM/TDM size: the full 9-trit address
// space. The FPGA prototype of Table V uses 256-word memories instead.
const DefaultMemWords = tmem.MaxWords

// SemanticsVersion names the observable semantics of the simulators:
// the architectural behaviour of Table I, the pipeline's stall/flush
// accounting, and every counter a run result reports. The fleet-wide
// result cache folds it into its keys, so bump it whenever a simulator
// change can alter any reported metric for an unchanged program —
// otherwise peers built before and after the change would share keys
// and replay stale results into each other.
const SemanticsVersion = "art9-sim/v1"

// Config sizes a machine.
type Config struct {
	TIMWords int // instruction memory words; 0 → DefaultMemWords
	TDMWords int // data memory words; 0 → DefaultMemWords
	MaxSteps int // cycle/step budget before ErrNoHalt; 0 → 100M
}

func (c Config) withDefaults() Config {
	if c.TIMWords == 0 {
		c.TIMWords = DefaultMemWords
	}
	if c.TDMWords == 0 {
		c.TDMWords = DefaultMemWords
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 100_000_000
	}
	return c
}

// State is the architectural state of an ART-9 core: the program counter,
// the nine-entry ternary register file, and the two memories. PC and TRF
// hold the bit-plane form (ternary.Packed) so the datapath never converts
// per trit; Reg exposes the Word view at the boundary. A run starts
// at PC, keeps the PC as a TIM index while it steps, and writes it back
// when it stops: at the halt, at a fault, or when the budget runs out.
//
// Load also keeps a read-only reference to the program's decoded
// instruction stream, and fetches inside that image are served from it
// instead of decoding the TIM word. The stream mirrors TIM as of the last
// Load: words written into TIM afterwards are seen only outside the image.
type State struct {
	PC  ternary.Packed
	TRF [isa.NumRegs]ternary.Packed
	TIM *tmem.Memory
	TDM *tmem.Memory

	text []isa.Inst // decoded TIM[0:len(text)] as of the last Load; shared, never written
}

// NewState builds a zeroed machine with the given configuration.
func NewState(cfg Config) *State {
	cfg = cfg.withDefaults()
	return &State{
		TIM: tmem.New("TIM", cfg.TIMWords),
		TDM: tmem.New("TDM", cfg.TDMWords),
	}
}

// Load initialises TIM and TDM from an assembled program and resets PC.
// Both memories are Reset first, so reloading over a previously used State
// neither leaks words beyond the new image nor carries stale access counts
// into the power model. When p carries one decoded instruction per TIM
// word (everything the assembler emits), fetches inside the image use
// p.Text directly; it is shared, not copied. A stream with an instruction
// that fails isa.Inst.Validate is not trusted: fetches then decode TIM, as
// past the image.
func (s *State) Load(p *asm.Program) error {
	s.text = nil
	s.TIM.Reset()
	s.TDM.Reset()
	if err := s.TIM.LoadImage(p.Words); err != nil {
		return err
	}
	if err := s.TDM.SetAll(p.Data); err != nil {
		return err
	}
	if len(p.Text) == len(p.Words) && validText(p.Text) {
		s.text = p.Text
	}
	s.PC = ternary.Packed{}
	return nil
}

// validText reports whether every instruction in text passes
// isa.Inst.Validate, as every one the assembler encodes does. The run
// loops rely on it: registers inside TRF, and immediates inside their
// op's field, which keeps the functional core's immPacked lookups inside
// the table.
func validText(text []isa.Inst) bool {
	for _, in := range text {
		if in.Validate() != nil {
			return false
		}
	}
	return true
}

// fetch reads and decodes the TIM word at address a and counts the read.
// Both run loops serve an address inside the image of the last Load from
// the decoded stream themselves (text[pc] plus TIM.CountRead) and call
// fetch only for anything else: past the image, or on a State whose TIM
// was filled without Load. An address beyond TIM comes back as fault and
// an undecodable word as illegal, so each core keeps its own fault text.
func (s *State) fetch(a int) (in isa.Inst, fault, illegal error) {
	w, err := s.TIM.ReadP(a)
	if err != nil {
		return isa.Inst{}, err, nil
	}
	in, err = isa.DecodePacked(w)
	return in, nil, err
}

// stop ends a run at TIM index pc: it fills in res.ByCategory from
// res.ByOp, writes pc back to the architectural PC, and returns res and
// err. The run loops keep the PC as an index, count only ByOp per retired
// instruction, and leave through stop at the halt, at a fault, and when
// the budget runs out.
func (s *State) stop(res *Result, pc int, err error) (Result, error) {
	res.ByCategory = [4]uint64{}
	for op, n := range res.ByOp {
		res.ByCategory[isa.Op(op).Category()] += n
	}
	s.PC = ternary.PackedFromInt(pc)
	return *res, err
}

// Reg returns TRF[r].
func (s *State) Reg(r isa.Reg) ternary.Word { return s.TRF[r].Unpack() }

// Result summarises a run. The run loops count what each retired
// instruction adds: Retired, ByOp, the loads, stores, branches and jumps,
// and the stall and squash slots. ByCategory follows from ByOp and is
// filled in once, when the run stops; so are the functional core's Cycles,
// from Retired (plus the stall and squash slots and the pipeline fill when
// timed).
type Result struct {
	Cycles       uint64 // total clock cycles (Functional.Run: == Retired)
	Retired      uint64 // architecturally completed instructions
	StallsLoad   uint64 // load-use stall cycles inserted by the HDU
	StallsBranch uint64 // squashed fetch slots after taken transfers
	Taken        uint64 // taken conditional branches
	NotTaken     uint64 // not-taken conditional branches
	Jumps        uint64 // JAL/JALR retired (excluding the halt)
	Loads        uint64
	Stores       uint64
	ByCategory   [4]uint64          // retired instructions per Table I category
	ByOp         [isa.NumOps]uint64 // retired instructions per opcode
	HaltPC       int                // address of the halt instruction
}

// OpMix returns the per-opcode dynamic instruction mix as fractions of
// retired instructions — the switching-activity profile of the datapath.
func (r Result) OpMix() map[isa.Op]float64 {
	m := make(map[isa.Op]float64)
	if r.Retired == 0 {
		return m
	}
	for op, n := range r.ByOp {
		if n > 0 {
			m[isa.Op(op)] = float64(n) / float64(r.Retired)
		}
	}
	return m
}

// CPI returns cycles per retired instruction.
func (r Result) CPI() float64 {
	if r.Retired == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Retired)
}

// ErrNoHalt is returned when the step budget is exhausted.
type ErrNoHalt struct{ Steps int }

func (e ErrNoHalt) Error() string {
	return fmt.Sprintf("sim: no halt within %d steps (runaway program?)", e.Steps)
}

// effect is the architectural outcome of one instruction: the full Table I
// semantics evaluated against a read-only view of the state. The pipeline
// carries it from ID to WB, and its MEM stage performs the memory access
// and fills in a loaded value. Control flow and memory addresses are
// TIM/TDM indices, the unsigned view of §II-A.
type effect struct {
	writesReg bool
	reg       isa.Reg
	val       ternary.Packed // value to write (for LOAD: filled by caller)

	isLoad  bool
	isStore bool
	addr    int            // TDM index for LOAD/STORE
	store   ternary.Packed // value to store

	next   int  // TIM index of the next instruction
	taken  bool // control transfer redirected away from PC+1
	branch bool // conditional branch (for taken/not-taken stats)
}

// liLoMask covers the 5 low trit positions replaced by LI.
const liLoMask = 1<<5 - 1

// incIndex returns TIM index u+1 modulo 3^9: the PC+1 datapath on the
// unsigned view, where the successor of 3^9−1 (the word −1) is 0.
func incIndex(u int) int {
	if u++; u == ternary.WordStates {
		return 0
	}
	return u
}

// addIndex returns u+imm modulo 3^9 for an index u in [0, 3^9) and an
// immediate |imm| < 3^9 — the PC+imm and base+offset datapaths. Balanced
// and unsigned words agree modulo 3^9, so one compare-and-fold gives the
// index of the packed sum.
func addIndex(u, imm int) int {
	u += imm
	if u < 0 {
		u += ternary.WordStates
	} else if u >= ternary.WordStates {
		u -= ternary.WordStates
	}
	return u
}

// evaluate fills e with the effect of in executed at TIM index pc with
// register read values ta and tb (already forwarded by the caller as
// appropriate). e is owned by the caller and overwritten whole. Register
// values stay in the bit-plane form; each kernel is differentially pinned
// to the trit-serial reference in internal/ternary, so the architectural
// semantics of Table I are unchanged.
//
// evaluate is the pipeline's EX stage. The functional core does not call
// it: it applies Table I inline in Functional.run, and
// TestStepMatchesEvaluate and FuzzStepVsEvaluate hold that switch to
// evaluate one instruction at a time.
func evaluate(e *effect, in isa.Inst, pc int, ta, tb ternary.Packed) {
	seq := incIndex(pc)
	*e = effect{next: seq}
	switch in.Op {
	case isa.MV:
		e.writesReg, e.reg, e.val = true, in.Ta, tb
	case isa.PTI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Pti()
	case isa.NTI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Nti()
	case isa.STI:
		e.writesReg, e.reg, e.val = true, in.Ta, tb.Sti()
	case isa.AND:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.And(tb)
	case isa.OR:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Or(tb)
	case isa.XOR:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Xor(tb)
	case isa.ADD:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Add(tb)
	case isa.SUB:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Sub(tb)
	case isa.SR:
		n := ternary.ShiftAmount(tb.Field(0, 1))
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftRight(n)
	case isa.SL:
		n := ternary.ShiftAmount(tb.Field(0, 1))
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftLeft(n)
	case isa.COMP:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Comp(tb)
	case isa.ANDI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.And(ternary.PackedFromInt(in.Imm))
	case isa.ADDI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.Add(ternary.PackedFromInt(in.Imm))
	case isa.SRI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftRight(ternary.ShiftAmount(in.Imm))
	case isa.SLI:
		e.writesReg, e.reg, e.val = true, in.Ta, ta.ShiftLeft(ternary.ShiftAmount(in.Imm))
	case isa.LUI:
		// imm fits in 4 trits, so its packed form occupies bits 0..3;
		// shifting by 5 lands it in the upper field with zero fill.
		e.writesReg, e.reg, e.val = true, in.Ta, ternary.PackedFromInt(in.Imm).ShiftLeft(5)
	case isa.LI:
		low := ternary.PackedFromInt(in.Imm) // 5-trit imm: bits 0..4 only
		v := ternary.Packed{                 // keep TRF[Ta][8:5], replace [4:0]
			N: ta.N&^liLoMask | low.N,
			P: ta.P&^liLoMask | low.P,
		}
		e.writesReg, e.reg, e.val = true, in.Ta, v
	case isa.BEQ, isa.BNE:
		e.branch = true
		cond := tb.Trit(0) == in.B
		if in.Op == isa.BNE {
			cond = !cond
		}
		if cond {
			e.next = addIndex(pc, in.Imm)
			e.taken = true
		}
	case isa.JAL:
		e.writesReg, e.reg, e.val = true, in.Ta, ternary.PackedFromInt(seq)
		e.next = addIndex(pc, in.Imm)
		e.taken = true
	case isa.JALR:
		e.writesReg, e.reg, e.val = true, in.Ta, ternary.PackedFromInt(seq)
		e.next = addIndex(tb.UIndex(), in.Imm)
		e.taken = true
	case isa.LOAD:
		e.isLoad = true
		e.writesReg, e.reg = true, in.Ta
		e.addr = addIndex(tb.UIndex(), in.Imm)
	case isa.STORE:
		e.isStore = true
		e.addr = addIndex(tb.UIndex(), in.Imm)
		e.store = ta
	}
}

// isHalt reports whether the effect is a jump to the instruction's own
// address pc — the HALT idiom the assembler emits (JAL x, 0 or an
// absolute JALR to self).
func (e *effect) isHalt(pc int) bool {
	return e.taken && e.next == pc
}
