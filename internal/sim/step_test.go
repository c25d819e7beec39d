package sim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/ternary"
)

// stepRig runs one instruction at a time on the functional core, under
// Config{MaxSteps: 1}, on both fetch paths, and checks each run against
// refStep on a State of its own. The rig's States are reused from one
// instruction to the next: each check sets TRF, the PC, the instruction
// and the TDM word it touches, and compares access counts as deltas.
type stepRig struct {
	stream *Functional // Loaded with a full-size image; fetches from text
	text   []isa.Inst  // stream's decoded instruction stream, rewritten per check
	tim    *Functional // never Loaded: every fetch reads and decodes TIM
	ref    *State
}

// newStepRig builds a rig whose TIM spans the whole address space and
// whose TDM holds tdmWords words.
func newStepRig(t testing.TB, tdmWords int) *stepRig {
	cfg := Config{TDMWords: tdmWords, MaxSteps: 1}
	r := &stepRig{
		stream: NewFunctional(cfg),
		text:   make([]isa.Inst, ternary.WordStates),
		tim:    NewFunctional(cfg),
		ref:    NewState(cfg),
	}
	p := &asm.Program{Words: make([]ternary.Word, ternary.WordStates), Text: r.text}
	if err := r.stream.S.Load(p); err != nil {
		t.Fatal(err)
	}
	return r
}

// refStep is the oracle for one step of Functional.Run: e, the effect
// evaluate computed for in at TIM index pc, applied to s with the TDM
// access it names and the counters of one retired instruction. The halt, a
// taken transfer to its own address, writes no register and counts as
// neither taken nor a jump. It leaves the PC where Run would and returns
// what Run returns under a one-step budget.
func refStep(s *State, e *effect, in isa.Inst, pc int) (Result, error) {
	var res Result
	fault := func(err error) (Result, error) {
		s.PC = ternary.PackedFromInt(pc)
		return res, fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), err)
	}
	if e.isLoad {
		v, err := s.TDM.ReadP(e.addr)
		if err != nil {
			return fault(err)
		}
		e.val = v
		res.Loads = 1
	}
	if e.isStore {
		if err := s.TDM.WriteP(e.addr, e.store); err != nil {
			return fault(err)
		}
		res.Stores = 1
	}
	res.Cycles, res.Retired = 1, 1
	res.ByOp[in.Op] = 1
	res.ByCategory[in.Op.Category()] = 1
	if e.isHalt(pc) {
		res.HaltPC = pc
		s.PC = ternary.PackedFromInt(pc)
		return res, nil
	}
	if e.writesReg {
		s.TRF[e.reg] = e.val
	}
	switch {
	case e.branch && e.taken:
		res.Taken = 1
	case e.branch:
		res.NotTaken = 1
	case e.taken:
		res.Jumps = 1
	}
	s.PC = ternary.PackedFromInt(e.next)
	return res, ErrNoHalt{1}
}

// check runs the instruction encoded by w (decoded: in, or illegal) at TIM
// index pc over register file trf, with mem in the TDM word a LOAD or
// STORE touches, on both fetch paths, and fails unless each run leaves the
// TRF, that TDM word, State.PC, the Result, the error text and the
// TIM/TDM access counts refStep gives. An illegal word can only be
// fetched from TIM, where it faults before anything retires.
func (r *stepRig) check(t testing.TB, w ternary.Packed, in isa.Inst, illegal error, pc int, trf [isa.NumRegs]ternary.Packed, mem ternary.Packed) {
	t.Helper()
	var e effect
	touch := -1
	if illegal == nil {
		evaluate(&e, in, pc, trf[in.Ta], trf[in.Tb])
		if (e.isLoad || e.isStore) && e.addr < r.ref.TDM.Size() {
			touch = e.addr
		}
	}
	for _, f := range []*Functional{r.stream, r.tim} {
		path := "decoded stream"
		if f == r.tim {
			path = "TIM"
			if err := f.S.TIM.WriteP(pc, w); err != nil {
				t.Fatal(err)
			}
		} else if illegal != nil {
			continue
		} else {
			r.text[pc] = in
		}
		for _, s := range []*State{f.S, r.ref} {
			s.TRF, s.PC = trf, ternary.PackedFromInt(pc)
			if touch >= 0 {
				if err := s.TDM.WriteP(touch, mem); err != nil {
					t.Fatal(err)
				}
			}
		}
		before, refBefore := accesses(f.S), accesses(r.ref)
		res, err := f.Run()
		after := accesses(f.S)
		var (
			wantRes Result
			wantErr error
		)
		if illegal != nil {
			wantErr = fmt.Errorf("sim: at PC=%d: %w", ternary.PackedFromInt(pc).Int(), illegal)
		} else {
			wantRes, wantErr = refStep(r.ref, &e, in, pc)
		}
		refAfter := accesses(r.ref)
		where := func() string {
			return fmt.Sprintf("%v at PC %d from the %s, TDM %d words, TRF %v, TDM word %v",
				in, pc, path, r.ref.TDM.Size(), trf, mem)
		}
		if got, want := fmt.Sprint(err), fmt.Sprint(wantErr); got != want {
			t.Fatalf("%s: error %q, want %q", where(), got, want)
		}
		if res != wantRes {
			t.Fatalf("%s:\nResult %+v\nwant   %+v", where(), res, wantRes)
		}
		if f.S.TRF != r.ref.TRF {
			t.Fatalf("%s: TRF %v, want %v", where(), f.S.TRF, r.ref.TRF)
		}
		if f.S.PC != r.ref.PC {
			t.Fatalf("%s: PC %v, want %v", where(), f.S.PC, r.ref.PC)
		}
		want := [4]uint64{1, 0, refAfter[2] - refBefore[2], refAfter[3] - refBefore[3]}
		if got := [4]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}; got != want {
			t.Fatalf("%s: TIM/TDM reads and writes %v, want %v", where(), got, want)
		}
		if touch >= 0 {
			got, _ := f.S.TDM.ReadP(touch)
			want, _ := r.ref.TDM.ReadP(touch)
			if got != want {
				t.Fatalf("%s: TDM[%d] = %v, want %v", where(), touch, got, want)
			}
		}
	}
}

// stepInsts returns every encoding of op over its fields: each Ta and Tb
// the opcode has (so every pair, Ta == Tb included), its immediate at both
// bounds of its field and at 0, and every condition trit of a branch.
func stepInsts(t *testing.T, op isa.Op) []isa.Inst {
	regs := func(has bool) []isa.Reg {
		if !has {
			return []isa.Reg{0}
		}
		return []isa.Reg{0, 1, 2, 3, 4, 5, 6, 7, 8}
	}
	imms := []int{0}
	if n := op.ImmTrits(); n > 0 {
		imms = []int{-ternary.MaxForTrits(n), 0, ternary.MaxForTrits(n)}
	}
	conds := []ternary.Trit{0}
	if op.IsBranch() {
		conds = []ternary.Trit{ternary.Neg, ternary.Zero, ternary.Pos}
	}
	var out []isa.Inst
	for _, ta := range regs(op.HasTa()) {
		for _, tb := range regs(op.HasTb()) {
			for _, imm := range imms {
				for _, b := range conds {
					in := isa.Inst{Op: op, Ta: ta, Tb: tb, B: b, Imm: imm}
					if got, err := isa.Decode(isa.MustEncode(in)); err != nil || got != in {
						t.Fatalf("%v decodes as %v (%v)", in, got, err)
					}
					out = append(out, in)
				}
			}
		}
	}
	return out
}

// TestStepMatchesEvaluate holds the functional core's inline Table I, one
// instruction at a time, to evaluate — the pipeline's EX stage, which
// shares no dispatch code with it. Every opcode runs in every encoding
// stepInsts gives, at PC 0, at the middle of the address space (+9841,
// whose successor is the word −9841) and at its top (3^9−1, the word −1,
// whose successor is 0), over register files drawn from the word's
// extremes, the trit-boundary values ±1, ±13, ±121, ±3280 and a few
// interior ones. The values rotate through the nine registers, so over
// all (Ta, Tb) pairs every ordered pair of values meets. The LOAD and
// STORE cases run again on the 256-word TDM of Table V, where most
// addresses fault.
func TestStepMatchesEvaluate(t *testing.T) {
	vals := []int{0, 1, -1, 13, -13, 121, -121, 3280, -3280, 9841, -9841, 5, -42, 777, -6000}
	pcs := []int{0, ternary.MaxInt, ternary.WordStates - 1}
	full, fpga := newStepRig(t, DefaultMemWords), newStepRig(t, 256)
	for op := isa.Op(0); op < isa.NumOps; op++ {
		rigs := []*stepRig{full}
		if op.Category() == isa.CatM {
			rigs = append(rigs, fpga)
		}
		for _, in := range stepInsts(t, op) {
			w := ternary.Pack(isa.MustEncode(in))
			for k := range vals {
				var trf [isa.NumRegs]ternary.Packed
				for r := range trf {
					trf[r] = ternary.PackedFromInt(vals[(k+r)%len(vals)])
				}
				mem := ternary.PackedFromInt(vals[(k+isa.NumRegs)%len(vals)])
				for _, pc := range pcs {
					for _, rig := range rigs {
						rig.check(t, w, in, nil, pc, trf, mem)
					}
				}
			}
		}
	}
}

// FuzzStepVsEvaluate is TestStepMatchesEvaluate over arbitrary inputs: an
// instruction word (illegal words included, fetched from TIM only), a PC,
// the TDM word a LOAD or STORE touches, and a register file of nine
// little-endian 16-bit values (missing bytes read as 0), each wrapped
// modulo 3^9. Every input runs on a full-size TDM and on the 256-word TDM
// of Table V. The seed corpus is in testdata/fuzz/FuzzStepVsEvaluate.
func FuzzStepVsEvaluate(f *testing.F) {
	rigs := []*stepRig{newStepRig(f, DefaultMemWords), newStepRig(f, 256)}
	f.Fuzz(func(t *testing.T, word int16, pc uint16, mem int16, regs []byte) {
		w := ternary.PackedFromInt(int(word))
		in, illegal := isa.DecodePacked(w)
		var trf [isa.NumRegs]ternary.Packed
		var b [2 * isa.NumRegs]byte
		copy(b[:], regs)
		for r := range trf {
			trf[r] = ternary.PackedFromInt(int(int16(binary.LittleEndian.Uint16(b[2*r:]))))
		}
		for _, rig := range rigs {
			rig.check(t, w, in, illegal, int(pc)%ternary.WordStates, trf, ternary.PackedFromInt(int(mem)))
		}
	})
}
