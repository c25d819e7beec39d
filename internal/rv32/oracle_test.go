package rv32

import (
	"fmt"
	"reflect"
	"testing"
)

// This file is the reference the RV32 machine and its baseline cycle
// models are held to: an instruction stepper that calls Retire on each of
// its models once per retired instruction, and per-instruction VexRiscv
// and PicoRV32 models. Machine runs in one loop that steps VexRiscvModel
// inline and charges PicoRV32Model from counts when the run stops; the
// tests here and FuzzRunVsReference hold that loop equal to this stepper
// field for field.

// retirer is a cycle model the reference stepper drives one retired
// instruction at a time.
type retirer interface {
	Retire(in Inst, taken bool, shamt uint32)
}

// refMachine steps an RV32IM program one instruction per call.
type refMachine struct {
	PC       uint32
	X        [NumRegs]uint32
	Text     []Inst
	RAM      []byte
	ramSize  int
	MaxSteps int

	Retired, Loads, Stores, Taken, NotTkn uint64

	models []retirer
}

func (m *refMachine) load(addr uint32, size int, signed bool) (uint32, error) {
	if int(addr)+size > m.ramSize {
		return 0, fmt.Errorf("rv32: load at %#x out of RAM", addr)
	}
	if addr%uint32(size) != 0 {
		return 0, fmt.Errorf("rv32: misaligned %d-byte load at %#x", size, addr)
	}
	var v uint32
	for k := size - 1; k >= 0; k-- {
		var b byte
		if i := int(addr) + k; i < len(m.RAM) {
			b = m.RAM[i]
		}
		v = v<<8 | uint32(b)
	}
	if signed {
		shift := 32 - 8*size
		v = uint32(int32(v<<shift) >> shift)
	}
	m.Loads++
	return v, nil
}

func (m *refMachine) store(addr uint32, size int, v uint32) error {
	end := int(addr) + size
	if end > m.ramSize {
		return fmt.Errorf("rv32: store at %#x out of RAM", addr)
	}
	if addr%uint32(size) != 0 {
		return fmt.Errorf("rv32: misaligned %d-byte store at %#x", size, addr)
	}
	if end > len(m.RAM) {
		m.RAM = append(m.RAM, make([]byte, end-len(m.RAM))...)
	}
	for k := 0; k < size; k++ {
		m.RAM[addr+uint32(k)] = byte(v >> (8 * k))
	}
	m.Stores++
	return nil
}

// Step executes one instruction; done=true on halt (EBREAK/ECALL or
// jump-to-self).
func (m *refMachine) Step() (done bool, err error) {
	idx := m.PC / 4
	if m.PC%4 != 0 || int(idx) >= len(m.Text) {
		return false, fmt.Errorf("rv32: PC %#x outside text", m.PC)
	}
	in := m.Text[idx]
	rs1, rs2 := m.X[in.Rs1], m.X[in.Rs2]
	nextPC := m.PC + 4
	var rd uint32
	wb := in.Op.WritesRd()
	taken := false
	var shamt uint32

	switch in.Op {
	case LUI:
		rd = uint32(in.Imm) << 12
	case AUIPC:
		rd = m.PC + uint32(in.Imm)<<12
	case JAL:
		rd = m.PC + 4
		nextPC = m.PC + uint32(in.Imm)
		taken = true
	case JALR:
		rd = m.PC + 4
		nextPC = (rs1 + uint32(in.Imm)) &^ 1
		taken = true
	case BEQ:
		taken = rs1 == rs2
	case BNE:
		taken = rs1 != rs2
	case BLT:
		taken = int32(rs1) < int32(rs2)
	case BGE:
		taken = int32(rs1) >= int32(rs2)
	case BLTU:
		taken = rs1 < rs2
	case BGEU:
		taken = rs1 >= rs2
	case LB:
		rd, err = m.load(rs1+uint32(in.Imm), 1, true)
	case LH:
		rd, err = m.load(rs1+uint32(in.Imm), 2, true)
	case LW:
		rd, err = m.load(rs1+uint32(in.Imm), 4, false)
	case LBU:
		rd, err = m.load(rs1+uint32(in.Imm), 1, false)
	case LHU:
		rd, err = m.load(rs1+uint32(in.Imm), 2, false)
	case SB:
		err = m.store(rs1+uint32(in.Imm), 1, rs2)
	case SH:
		err = m.store(rs1+uint32(in.Imm), 2, rs2)
	case SW:
		err = m.store(rs1+uint32(in.Imm), 4, rs2)
	case ADDI:
		rd = rs1 + uint32(in.Imm)
	case SLTI:
		if int32(rs1) < in.Imm {
			rd = 1
		}
	case SLTIU:
		if rs1 < uint32(in.Imm) {
			rd = 1
		}
	case XORI:
		rd = rs1 ^ uint32(in.Imm)
	case ORI:
		rd = rs1 | uint32(in.Imm)
	case ANDI:
		rd = rs1 & uint32(in.Imm)
	case SLLI:
		shamt = uint32(in.Imm) & 31
		rd = rs1 << shamt
	case SRLI:
		shamt = uint32(in.Imm) & 31
		rd = rs1 >> shamt
	case SRAI:
		shamt = uint32(in.Imm) & 31
		rd = uint32(int32(rs1) >> shamt)
	case ADD:
		rd = rs1 + rs2
	case SUB:
		rd = rs1 - rs2
	case SLL:
		shamt = rs2 & 31
		rd = rs1 << shamt
	case SLT:
		if int32(rs1) < int32(rs2) {
			rd = 1
		}
	case SLTU:
		if rs1 < rs2 {
			rd = 1
		}
	case XOR:
		rd = rs1 ^ rs2
	case SRL:
		shamt = rs2 & 31
		rd = rs1 >> shamt
	case SRA:
		shamt = rs2 & 31
		rd = uint32(int32(rs1) >> shamt)
	case OR:
		rd = rs1 | rs2
	case AND:
		rd = rs1 & rs2
	case FENCE:
		// no-op in this memory model
	case ECALL, EBREAK:
		m.Retired++
		m.notify(in, false, 0)
		return true, nil
	case MUL:
		rd = rs1 * rs2
	case MULH:
		rd = uint32(int64(int32(rs1)) * int64(int32(rs2)) >> 32)
	case MULHSU:
		rd = uint32(int64(int32(rs1)) * int64(rs2) >> 32)
	case MULHU:
		rd = uint32(uint64(rs1) * uint64(rs2) >> 32)
	case DIV:
		switch {
		case rs2 == 0:
			rd = ^uint32(0)
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			rd = rs1
		default:
			rd = uint32(int32(rs1) / int32(rs2))
		}
	case DIVU:
		if rs2 == 0 {
			rd = ^uint32(0)
		} else {
			rd = rs1 / rs2
		}
	case REM:
		switch {
		case rs2 == 0:
			rd = rs1
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			rd = 0
		default:
			rd = uint32(int32(rs1) % int32(rs2))
		}
	case REMU:
		if rs2 == 0 {
			rd = rs1
		} else {
			rd = rs1 % rs2
		}
	default:
		return false, fmt.Errorf("rv32: unimplemented op %v", in.Op)
	}
	if err != nil {
		return false, fmt.Errorf("rv32: at PC %#x: %w", m.PC, err)
	}
	if in.Op.IsBranch() {
		if taken {
			nextPC = m.PC + uint32(in.Imm)
			m.Taken++
		} else {
			m.NotTkn++
		}
	}
	if wb && in.Rd != 0 {
		m.X[in.Rd] = rd
	}
	m.Retired++
	m.notify(in, taken, shamt)
	if nextPC == m.PC {
		return true, nil // jump-to-self halt idiom
	}
	m.PC = nextPC
	return false, nil
}

func (m *refMachine) notify(in Inst, taken bool, shamt uint32) {
	for _, o := range m.models {
		o.Retire(in, taken, shamt)
	}
}

// Run executes until halt.
func (m *refMachine) Run() error {
	for steps := 0; steps < m.MaxSteps; steps++ {
		done, err := m.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("rv32: no halt within %d steps", m.MaxSteps)
}

// refVex is the VexRiscv model stepped once per retired instruction.
type refVex struct {
	BranchPenalty, MulExtra, DivExtra uint64

	t       uint64
	ready   [NumRegs]uint64
	started bool
}

func (v *refVex) Retire(in Inst, taken bool, _ uint32) {
	t := v.t + 1
	if !v.started {
		v.started = true
		t = 1
	}
	c := &opClasses[in.Op]
	if c.readsRs1 && in.Rs1 != 0 && v.ready[in.Rs1] > t {
		t = v.ready[in.Rs1]
	}
	if c.readsRs2 && in.Rs2 != 0 && v.ready[in.Rs2] > t {
		t = v.ready[in.Rs2]
	}
	switch c.exec {
	case execMul:
		t += v.MulExtra
	case execDiv:
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

func (v *refVex) TotalCycles() uint64 {
	if !v.started {
		return 0
	}
	return v.t + 4
}

// refPico is the PicoRV32 model charged once per retired instruction.
type refPico struct {
	Cycles uint64

	ALU, Load, Store, BranchTaken, BranchNot, Jump, Jalr, ShiftBase, Mul, Div uint64
	SerialShift                                                               bool
}

func (p *refPico) Retire(in Inst, taken bool, shamt uint32) {
	switch opClasses[in.Op].exec {
	case execJAL:
		p.Cycles += p.Jump
	case execJALR:
		p.Cycles += p.Jalr
	case execBranch:
		if taken {
			p.Cycles += p.BranchTaken
		} else {
			p.Cycles += p.BranchNot
		}
	case execLoad:
		p.Cycles += p.Load
	case execStore:
		p.Cycles += p.Store
	case execMul:
		p.Cycles += p.Mul
	case execDiv:
		p.Cycles += p.Div
	case execShift:
		p.Cycles += p.ShiftBase
		if p.SerialShift {
			p.Cycles += uint64(shamt)
		}
	default:
		p.Cycles += p.ALU
	}
}

// refVexOf and refPicoOf copy a model's cost fields into a fresh oracle.
func refVexOf(v *VexRiscvModel) *refVex {
	return &refVex{BranchPenalty: v.BranchPenalty, MulExtra: v.MulExtra, DivExtra: v.DivExtra}
}

func refPicoOf(p *PicoRV32Model) *refPico {
	return &refPico{
		ALU: p.ALU, Load: p.Load, Store: p.Store,
		BranchTaken: p.BranchTaken, BranchNot: p.BranchNot,
		Jump: p.Jump, Jalr: p.Jalr, ShiftBase: p.ShiftBase,
		Mul: p.Mul, Div: p.Div, SerialShift: p.SerialShift,
	}
}

// refCase is one differential run: a program, the machine it runs on and
// the costs of the models attached to it.
type refCase struct {
	Prog     *Program
	RAMBytes int
	MaxSteps int                  // 0: NewMachine's default
	Regs     [NumRegs]uint32      // set after Load; X[0] must stay 0
	Pico     func(*PicoRV32Model) // edits the default PicoRV32 costs, if set
	Vex      func(*VexRiscvModel) // edits the default VexRiscv costs, if set
	Single   bool                 // step one instruction at a time instead of Run
}

// refOutcome is everything a run leaves that the reference pins.
type refOutcome struct {
	PC                                    uint32
	X                                     [NumRegs]uint32
	RAM                                   []byte
	Retired, Loads, Stores, Taken, NotTkn uint64
	Err                                   string
	Vex, Pico                             uint64
}

func (c refCase) models() (*VexRiscvModel, *PicoRV32Model) {
	vex, pico := NewVexRiscvModel(), NewPicoRV32Model()
	if c.Vex != nil {
		c.Vex(vex)
	}
	if c.Pico != nil {
		c.Pico(pico)
	}
	return vex, pico
}

// runMachine runs c on Machine with one model of each kind attached.
func (c refCase) runMachine() refOutcome {
	m := NewMachine(c.RAMBytes)
	if c.MaxSteps != 0 {
		m.MaxSteps = c.MaxSteps
	}
	vex, pico := c.models()
	m.Observe(vex)
	m.Observe(pico)
	var o refOutcome
	if err := m.Load(c.Prog); err != nil {
		o.Err = err.Error()
		return o
	}
	m.X = c.Regs
	var err error
	if c.Single {
		err = stepToHalt(m.MaxSteps, m.Step)
	} else {
		err = m.Run()
	}
	if err != nil {
		o.Err = err.Error()
	}
	o.PC, o.X, o.RAM = m.PC, m.X, m.RAM
	o.Retired, o.Loads, o.Stores, o.Taken, o.NotTkn = m.Retired, m.Loads, m.Stores, m.Taken, m.NotTkn
	o.Vex, o.Pico = vex.TotalCycles(), pico.TotalCycles()
	return o
}

// runReference runs c on refMachine with the oracle models attached.
func (c refCase) runReference() refOutcome {
	vex, pico := c.models()
	rv, rp := refVexOf(vex), refPicoOf(pico)
	m := &refMachine{ramSize: c.RAMBytes, MaxSteps: 200_000_000}
	if c.MaxSteps != 0 {
		m.MaxSteps = c.MaxSteps
	}
	m.models = []retirer{rv, rp}
	var o refOutcome
	if len(c.Prog.Data) > m.ramSize {
		o.Err = fmt.Sprintf("rv32: data image %d bytes exceeds RAM %d", len(c.Prog.Data), m.ramSize)
		return o
	}
	m.Text = c.Prog.Insts
	m.RAM = append([]byte(nil), c.Prog.Data...)
	m.X = c.Regs
	var err error
	if c.Single {
		err = stepToHalt(m.MaxSteps, m.Step)
	} else {
		err = m.Run()
	}
	if err != nil {
		o.Err = err.Error()
	}
	o.PC, o.X, o.RAM = m.PC, m.X, m.RAM
	o.Retired, o.Loads, o.Stores, o.Taken, o.NotTkn = m.Retired, m.Loads, m.Stores, m.Taken, m.NotTkn
	o.Vex, o.Pico = rv.TotalCycles(), rp.Cycles
	return o
}

// stepToHalt single-steps to a halt, a fault or the end of the budget,
// reporting the last as Run does.
func stepToHalt(budget int, step func() (bool, error)) error {
	for i := 0; i < budget; i++ {
		done, err := step()
		if err != nil || done {
			return err
		}
	}
	return fmt.Errorf("rv32: no halt within %d steps", budget)
}

// checkAgainstReference runs c on both and reports every field that
// differs. It returns the Machine's outcome.
func checkAgainstReference(t testing.TB, name string, c refCase) refOutcome {
	t.Helper()
	got, want := c.runMachine(), c.runReference()
	if len(got.RAM) == 0 && len(want.RAM) == 0 {
		got.RAM, want.RAM = nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: machine and reference differ\n got  %s\n want %s", name, got.summary(), want.summary())
		if got.X != want.X {
			t.Errorf("%s: registers\n got  %v\n want %v", name, got.X, want.X)
		}
		if string(got.RAM) != string(want.RAM) {
			t.Errorf("%s: RAM differs (%d vs %d bytes)", name, len(got.RAM), len(want.RAM))
		}
	}
	return got
}

func (o refOutcome) summary() string {
	return fmt.Sprintf("PC %#x retired %d loads %d stores %d taken %d not %d vex %d pico %d err %q",
		o.PC, o.Retired, o.Loads, o.Stores, o.Taken, o.NotTkn, o.Vex, o.Pico, o.Err)
}

// CheckAgainstReference lets the external tests, which see the benchmark
// workloads, hold a halting program's run equal to the reference: by Run
// and by single steps, each with PicoRV32's shifter barrel and serial.
func CheckAgainstReference(t *testing.T, name string, p *Program) {
	t.Helper()
	for _, single := range []bool{false, true} {
		for _, serial := range []bool{false, true} {
			c := refCase{Prog: p, RAMBytes: 1 << 16, Single: single}
			if serial {
				c.Pico = func(p *PicoRV32Model) { p.SerialShift = true }
			}
			label := fmt.Sprintf("%s (single %v, serial shift %v)", name, single, serial)
			if o := checkAgainstReference(t, label, c); o.Err != "" {
				t.Errorf("%s: %s", label, o.Err)
			}
		}
	}
}

// TestMachineMatchesReferenceEdgeRuns covers the runs a halting workload
// does not: a fault part-way, an exhausted step budget, a serial shifter,
// and single steps from a machine that never calls Run.
func TestMachineMatchesReferenceEdgeRuns(t *testing.T) {
	loop := `
		li t0, 0
		li t1, 3
	again:	addi t0, t0, 1
		slli t2, t0, 17
		srl t3, t2, t1
		mul t4, t0, t1
		divu t5, t4, t1
		blt t0, t1, again
		ebreak
	`
	cases := []struct {
		name string
		src  string
		c    refCase
		err  string // the error both must report, if any
	}{
		{name: "fault part-way", src: `
			li t0, 8
			li t1, 5
			sw t1, 0(t0)
			mul t1, t1, t1
			lw t2, 2(t0)       # misaligned: faults after four retire
			ebreak
		`, err: "rv32: at PC 0x10: rv32: misaligned 4-byte load at 0xa"},
		{name: "misaligned load inside the data image", src: `
			.data
		v:	.word 1, 2, 3, 4
			.text
			lw t0, 4(zero)
			lw t1, 6(zero)
			ebreak
		`, err: "rv32: at PC 0x4: rv32: misaligned 4-byte load at 0x6"},
		{name: "misaligned store inside the data image", src: `
			.data
		v:	.word 1, 2, 3, 4
			.text
			sw t0, 8(zero)
			sw t0, 9(zero)
			ebreak
		`, err: "rv32: at PC 0x4: rv32: misaligned 4-byte store at 0x9"},
		{name: "fault on a store past RAM", src: `
			li t0, 4096
			sb t0, 0(t0)
			ebreak
		`, c: refCase{RAMBytes: 4096}, err: "rv32: at PC 0x4: rv32: store at 0x1000 out of RAM"},
		{name: "budget exhausted", src: "again: addi t0, t0, 1\nj again\n",
			c: refCase{MaxSteps: 1001}, err: "rv32: no halt within 1001 steps"},
		{name: "budget of zero", src: "ebreak", c: refCase{MaxSteps: -1}, err: "rv32: no halt within -1 steps"},
		{name: "serial shift", src: loop,
			c: refCase{Pico: func(p *PicoRV32Model) { p.SerialShift = true }}},
		{name: "edited costs", src: loop, c: refCase{
			Pico: func(p *PicoRV32Model) { p.Mul, p.Div, p.ShiftBase, p.BranchTaken = 4, 9, 1, 7 },
			Vex:  func(v *VexRiscvModel) { v.BranchPenalty, v.MulExtra, v.DivExtra = 3, 1, 2 },
		}},
		{name: "PC outside text", src: "jalr zero, 64(zero)", err: "rv32: PC 0x40 outside text"},
		{name: "jump to self", src: "li a0, 3\nself: j self"},
	}
	for _, tc := range cases {
		p, err := Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, single := range []bool{false, true} {
			c := tc.c
			c.Prog, c.Single = p, single
			if c.RAMBytes == 0 {
				c.RAMBytes = 1 << 12
			}
			name := fmt.Sprintf("%s (single %v)", tc.name, single)
			if o := checkAgainstReference(t, name, c); o.Err != tc.err {
				t.Errorf("%s: error %q, want %q", name, o.Err, tc.err)
			}
		}
	}
}

// TestModelCostsEditedBetweenRuns runs two programs on one machine with the
// same two models attached and edits every cost field between the runs: the
// second run is charged at the edited costs, the first keeps the costs it
// ran at, as the reference models charge them.
func TestModelCostsEditedBetweenRuns(t *testing.T) {
	first := assemble(t, "li t0, 5\nli t1, 3\nmul t2, t0, t1\nslli t2, t2, 9\nebreak\n")
	second := assemble(t, `
		li t0, 0
	again:	addi t0, t0, 1
		div t1, t0, t0
		sra t1, t0, t0
		lw t2, 0(zero)
		sw t2, 4(zero)
		call fn
		bne t0, t1, again
		ebreak
	fn:	ret
	`)
	edit := func(v *VexRiscvModel, p *PicoRV32Model) {
		v.BranchPenalty, v.MulExtra, v.DivExtra = 5, 2, 7
		p.ALU, p.Load, p.Store = 2, 4, 6
		p.BranchTaken, p.BranchNot, p.Jump, p.Jalr = 8, 1, 2, 9
		p.ShiftBase, p.Mul, p.Div, p.SerialShift = 4, 3, 11, true
	}
	m := NewMachine(1 << 12)
	vex, pico := NewVexRiscvModel(), NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)

	ref := &refMachine{ramSize: 1 << 12, MaxSteps: m.MaxSteps}
	rv, rp := refVexOf(vex), refPicoOf(pico)
	ref.models = []retirer{rv, rp}
	runRef := func(p *Program) {
		ref.Text, ref.RAM, ref.PC, ref.X = p.Insts, append(ref.RAM[:0], p.Data...), 0, [NumRegs]uint32{}
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
	}

	for i, p := range []*Program{first, second} {
		if i == 1 {
			edit(vex, pico)
			rv.BranchPenalty, rv.MulExtra, rv.DivExtra = vex.BranchPenalty, vex.MulExtra, vex.DivExtra
			c := refPicoOf(pico)
			c.Cycles = rp.Cycles
			*rp = *c
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		runRef(p)
		if vex.TotalCycles() != rv.TotalCycles() || pico.TotalCycles() != rp.Cycles {
			t.Errorf("after run %d: vex %d pico %d, reference vex %d pico %d",
				i+1, vex.TotalCycles(), pico.TotalCycles(), rv.TotalCycles(), rp.Cycles)
		}
	}
}
