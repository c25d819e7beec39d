package xlate

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/sim"
)

// allocation is the register-renaming plan of the operand-conversion phase:
// the six hottest RV32 registers ride in T1..T6, the rest spill to TDM.
type allocation struct {
	direct map[rv32.Reg]isa.Reg // rv reg -> T1..T6
	slot   map[rv32.Reg]int     // rv reg -> TDM slot address (negative)
}

// allocate counts loop-depth-weighted register uses and builds the plan:
// registers hot in inner loops win the six direct GPTRs. Loop depth is
// estimated from backward branches (a branch to an earlier instruction
// nests everything in between one level deeper).
func allocate(p *rv32.Program) *allocation {
	depth := make([]int, len(p.Insts))
	for idx, in := range p.Insts {
		if (in.Op.IsBranch() || in.Op == rv32.JAL) && in.Imm < 0 {
			lo := idx + int(in.Imm)/4
			if lo < 0 {
				lo = 0
			}
			for k := lo; k <= idx; k++ {
				if depth[k] < 3 {
					depth[k]++
				}
			}
		}
	}
	var uses [rv32.NumRegs]int
	for idx, in := range p.Insts {
		w := 1 << (2 * depth[idx]) // 1, 4, 16, 64
		if in.Op.WritesRd() {
			uses[in.Rd] += w
		}
		if in.Op.ReadsRs1() {
			uses[in.Rs1] += w
		}
		if in.Op.ReadsRs2() {
			uses[in.Rs2] += w
		}
	}
	type cand struct {
		r rv32.Reg
		n int
	}
	var cands []cand
	for r := rv32.Reg(1); r < rv32.NumRegs; r++ { // x0 is pinned to T0
		if uses[r] > 0 {
			cands = append(cands, cand{r, uses[r]})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].n > cands[j].n })

	a := &allocation{direct: map[rv32.Reg]isa.Reg{}, slot: map[rv32.Reg]int{}}
	next := isa.Reg(1)
	for _, c := range cands {
		if int(next) <= numDirect {
			a.direct[c.r] = next
			next++
			continue
		}
		// Spill: cheap window first, then the overflow area.
		k := len(a.slot)
		if k < len(cheapSpillSlots) {
			a.slot[c.r] = cheapSpillSlots[k]
		} else {
			a.slot[c.r] = farBase - (k - len(cheapSpillSlots))
		}
	}
	return a
}

// isDirect reports whether rv lives in a GPTR (including x0 → T0).
func (a *allocation) isDirect(rv rv32.Reg) (isa.Reg, bool) {
	if rv == 0 {
		return regZero, true
	}
	r, ok := a.direct[rv]
	return r, ok
}

// slotOf returns the spill slot address of rv.
func (a *allocation) slotOf(rv rv32.Reg) int {
	s, ok := a.slot[rv]
	if !ok {
		panic(fmt.Sprintf("xlate: register %v has no location", rv))
	}
	return s
}

// cheap reports whether a slot is inside the T0 load/store window.
func cheapSlot(s int) bool { return s >= -13 && s <= 13 }

// read makes the value of rv available in a GPTR: either its direct home
// or the given scratch register, emitting spill loads as needed.
func (t *translator) read(rv rv32.Reg, scratch isa.Reg) isa.Reg {
	if r, ok := t.alloc.isDirect(rv); ok {
		return r
	}
	s := t.alloc.slotOf(rv)
	if cheapSlot(s) {
		t.mem(isa.LOAD, scratch, regZero, s)
		return scratch
	}
	t.ldi(scratch, s)
	t.mem(isa.LOAD, scratch, scratch, 0)
	return scratch
}

// writeTarget returns the register a template should compute rv's new value
// into: its direct home, or a scratch that writeBack will spill.
func (t *translator) writeTarget(rv rv32.Reg, scratch isa.Reg) isa.Reg {
	if r, ok := t.alloc.isDirect(rv); ok {
		return r
	}
	return scratch
}

// writeBack completes a write to rv if it is spilled (no-op for direct
// registers; writes to x0 are discarded by emitting nothing — callers
// check for x0 themselves where the whole template can be skipped).
func (t *translator) writeBack(rv rv32.Reg, from isa.Reg) {
	if rv == 0 {
		return
	}
	if _, ok := t.alloc.isDirect(rv); ok {
		return
	}
	s := t.alloc.slotOf(rv)
	if cheapSlot(s) {
		t.mem(isa.STORE, from, regZero, s)
		return
	}
	// Address must go through the other scratch.
	other := scratchA
	if from == scratchA {
		other = scratchB
	}
	t.ldi(other, s)
	t.mem(isa.STORE, from, other, 0)
}

// Location describes where an RV32 register's value lives after
// translation, for the equivalence tests and the CLI's state dump.
type Location struct {
	Direct bool
	Reg    isa.Reg // valid when Direct
	Slot   int     // TDM address when !Direct
}

// RegLocation exposes the allocation for a given RV32 register. The second
// result is false if the register never appeared in the program.
func (o *Output) RegLocation(rv rv32.Reg) (Location, bool) {
	if r, ok := o.alloc.isDirect(rv); ok {
		return Location{Direct: true, Reg: r}, true
	}
	if s, ok := o.alloc.slot[rv]; ok {
		return Location{Slot: s}, true
	}
	return Location{}, false
}

// ReadBack fetches the translated program's value of rv from a finished
// ART-9 machine state.
func (o *Output) ReadBack(s *sim.State, rv rv32.Reg) (int, error) {
	loc, ok := o.RegLocation(rv)
	if !ok {
		return 0, fmt.Errorf("xlate: %v not used by the program", rv)
	}
	if loc.Direct {
		return s.Reg(loc.Reg).Int(), nil
	}
	idx := loc.Slot
	if idx < 0 {
		idx += sim.DefaultMemWords
	}
	w, err := s.TDM.Read(idx)
	if err != nil {
		return 0, err
	}
	return w.Int(), nil
}
