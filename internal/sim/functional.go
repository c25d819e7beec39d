package sim

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Functional is the instruction-accurate reference core: one instruction
// per step, no micro-architecture. It defines the architectural semantics
// against which the pipelined core is verified, and executes Table I
// itself rather than through the pipeline's evaluate, so the two cores
// check each other without sharing dispatch code.
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

// RunTimed executes like Run, on the same loop, and times the retired
// stream as the pipelined core schedules it, so that on a program that
// halts its Result, its TIM and TDM access counts and the final TRF and
// TDM equal Pipeline.Run's. The pipeline stalls only for load-use hazards
// and taken transfers (§IV-B), so one instruction of lookback decides
// every stall:
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

// run is the functional core's one loop, shared by Run and RunTimed. Each
// step fetches and then executes Table I in one switch on the opcode: the
// case reads its operands from TRF, writes its destination through
// writeReg, makes its own TDM access, counts its own loads, stores,
// branches and jumps, and picks the next TIM index. ADDI, ANDI, LUI and
// LI take their packed immediate from immPacked. The PC lives in a local
// TIM index. A halt — a taken transfer to its own address — leaves
// through halt before it writes a register or counts as taken. With timed
// set the loop also charges the pipeline's stall and squash slots to res
// and to the budget; that work sits behind a check of loaded and inside
// the LOAD and taken-transfer cases, where an untimed step skips it.
// Cycles and ByCategory follow from the other counters and are filled in
// once, when the run stops (finish and State.stop).
func (f *Functional) run(timed bool) (Result, error) {
	var (
		res Result
		in  isa.Inst
	)
	s := f.S
	text, trf := s.text, &s.TRF
	pc := s.PC.UIndex()
	budget := f.cfg.MaxSteps
	loaded := noLoad // register the previous instruction loaded; set only when timed
	if timed {
		budget -= pipelineFill
	}
	for ; budget > 0; budget-- {
		if uint(pc) < uint(len(text)) {
			s.TIM.CountRead()
			in = text[pc]
		} else {
			var fault, illegal error
			if in, fault, illegal = s.fetch(pc); fault != nil {
				return f.finish(&res, timed, pc, fmt.Errorf("sim: fetch at PC=%d: %w", ternary.PackedFromInt(pc).Int(), fault))
			} else if illegal != nil {
				return f.fault(&res, timed, pc, illegal)
			}
		}
		if loaded != noLoad && (in.Ta == loaded && in.Op.ReadsTa() || in.Tb == loaded && in.Op.ReadsTb()) {
			// Load-use hazard: the pipeline holds this instruction in ID
			// for one cycle.
			res.StallsLoad++
			if budget--; budget == 0 {
				break
			}
		}
		loaded = noLoad
		next := incIndex(pc)
		switch in.Op {
		case isa.MV:
			writeReg(trf, in.Ta, trf[in.Tb])
		case isa.PTI:
			writeReg(trf, in.Ta, trf[in.Tb].Pti())
		case isa.NTI:
			writeReg(trf, in.Ta, trf[in.Tb].Nti())
		case isa.STI:
			writeReg(trf, in.Ta, trf[in.Tb].Sti())
		case isa.AND:
			writeReg(trf, in.Ta, trf[in.Ta].And(trf[in.Tb]))
		case isa.OR:
			writeReg(trf, in.Ta, trf[in.Ta].Or(trf[in.Tb]))
		case isa.XOR:
			writeReg(trf, in.Ta, trf[in.Ta].Xor(trf[in.Tb]))
		case isa.ADD:
			writeReg(trf, in.Ta, trf[in.Ta].Add(trf[in.Tb]))
		case isa.SUB:
			writeReg(trf, in.Ta, trf[in.Ta].Sub(trf[in.Tb]))
		case isa.SR:
			writeReg(trf, in.Ta, trf[in.Ta].ShiftRight(ternary.ShiftAmount(trf[in.Tb].Field(0, 1))))
		case isa.SL:
			writeReg(trf, in.Ta, trf[in.Ta].ShiftLeft(ternary.ShiftAmount(trf[in.Tb].Field(0, 1))))
		case isa.COMP:
			writeReg(trf, in.Ta, trf[in.Ta].Comp(trf[in.Tb]))
		case isa.ANDI:
			writeReg(trf, in.Ta, trf[in.Ta].And(immPacked[in.Imm+immBias]))
		case isa.ADDI:
			writeReg(trf, in.Ta, trf[in.Ta].Add(immPacked[in.Imm+immBias]))
		case isa.SRI:
			writeReg(trf, in.Ta, trf[in.Ta].ShiftRight(ternary.ShiftAmount(in.Imm)))
		case isa.SLI:
			writeReg(trf, in.Ta, trf[in.Ta].ShiftLeft(ternary.ShiftAmount(in.Imm)))
		case isa.LUI:
			// imm fits in 4 trits, so its packed form occupies bits 0..3;
			// shifting by 5 lands it in the upper field with zero fill.
			writeReg(trf, in.Ta, immPacked[in.Imm+immBias].ShiftLeft(5))
		case isa.LI:
			// Keep TRF[Ta][8:5] and replace [4:0] with the 5-trit
			// immediate, whose packed form occupies bits 0..4 only.
			ta, low := trf[in.Ta], immPacked[in.Imm+immBias]
			writeReg(trf, in.Ta, ternary.Packed{N: ta.N&^liLoMask | low.N, P: ta.P&^liLoMask | low.P})
		case isa.BEQ, isa.BNE:
			if (trf[in.Tb].Trit(0) == in.B) != (in.Op == isa.BNE) {
				to := addIndex(pc, in.Imm)
				if to == pc {
					return f.halt(&res, timed, pc, in.Op)
				}
				next = to
				res.Taken++
				if timed { // the squashed fetch slot behind the transfer
					res.StallsBranch++
					budget--
				}
			} else {
				res.NotTaken++
			}
		case isa.JAL:
			to := addIndex(pc, in.Imm)
			if to == pc {
				return f.halt(&res, timed, pc, in.Op)
			}
			writeReg(trf, in.Ta, ternary.PackedFromInt(next))
			next = to
			res.Jumps++
			if timed {
				res.StallsBranch++
				budget--
			}
		case isa.JALR:
			to := addIndex(trf[in.Tb].UIndex(), in.Imm) // the base is read before the link is written
			if to == pc {
				return f.halt(&res, timed, pc, in.Op)
			}
			writeReg(trf, in.Ta, ternary.PackedFromInt(next))
			next = to
			res.Jumps++
			if timed {
				res.StallsBranch++
				budget--
			}
		case isa.LOAD:
			v, err := s.TDM.ReadP(addIndex(trf[in.Tb].UIndex(), in.Imm))
			if err != nil {
				return f.fault(&res, timed, pc, err)
			}
			writeReg(trf, in.Ta, v)
			res.Loads++
			if timed {
				loaded = in.Ta
			}
		case isa.STORE:
			if err := s.TDM.WriteP(addIndex(trf[in.Tb].UIndex(), in.Imm), trf[in.Ta]); err != nil {
				return f.fault(&res, timed, pc, err)
			}
			res.Stores++
		}
		res.ByOp[in.Op]++
		res.Retired++
		pc = next
	}
	return f.finish(&res, timed, pc, ErrNoHalt{f.cfg.MaxSteps})
}

// halt retires op, the halt instruction at TIM index pc, and ends the run
// there. The halt counts toward the mix like any other instruction —
// otherwise ΣOpMix < 1 and the switching-activity profile under-reports
// the datapath — but its transfer writes no register, squashes no slot
// and counts as neither a taken branch nor a jump.
func (f *Functional) halt(res *Result, timed bool, pc int, op isa.Op) (Result, error) {
	res.ByOp[op]++
	res.Retired++
	res.HaltPC = pc
	return f.finish(res, timed, pc, nil)
}

// fault ends a run at TIM index pc on err, an illegal instruction word or
// a TDM access fault, prefixed with that PC in its balanced form.
func (f *Functional) fault(res *Result, timed bool, pc int, err error) (Result, error) {
	return f.finish(res, timed, pc, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), err))
}

// finish ends a run at TIM index pc with err. It fills in Cycles — one per
// retired instruction, plus the stall and squash slots and the pipeline
// fill when timed — and hands res to State.stop.
func (f *Functional) finish(res *Result, timed bool, pc int, err error) (Result, error) {
	res.Cycles = res.Retired
	if timed {
		res.Cycles += res.StallsLoad + res.StallsBranch + pipelineFill
	}
	return f.S.stop(res, pc, err)
}

// immBias is the largest immediate magnitude of Table I, LI's and JAL's
// 5 trits: every immediate an instruction word can encode lies in
// [−immBias, immBias].
const immBias = (243 - 1) / 2

// immPacked holds the packed form of every immediate an instruction word
// can encode, indexed by Imm+immBias, so the run loop converts none. Its
// instructions come either from decoding a TIM word or from a stream that
// State.Load trusts only when each immediate fits its op's field, so the
// index stays inside the table.
var immPacked = func() (t [2*immBias + 1]ternary.Packed) {
	for i := range t {
		t[i] = ternary.PackedFromInt(i - immBias)
	}
	return t
}()

// writeReg stores v in trf[r] as two 32-bit moves. A plain struct copy can
// compile to one 64-bit load and store, and where v's planes were just
// stored separately that load spans both stores, which the store buffer
// cannot forward: when the functional core copied its results out of an
// effect, that stall cost about a quarter of a step. Masking P, a no-op on
// a valid word, keeps the compiler from fusing the two moves.
func writeReg(trf *[isa.NumRegs]ternary.Packed, r isa.Reg, v ternary.Packed) {
	trf[r] = ternary.Packed{N: v.N, P: v.P & ternary.PlaneMask}
}
