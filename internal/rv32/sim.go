package rv32

import "fmt"

// Machine is an instruction-accurate RV32IM simulator with a Harvard
// layout: text indexed by PC/4, a byte-addressed data RAM from address 0.
// It produces the retired-instruction trace events the cycle models
// consume, so one run yields both VexRiscv-like and PicoRV32-like cycle
// counts.
type Machine struct {
	PC   uint32
	X    [NumRegs]uint32
	Text []Inst

	// RAM is the touched prefix of the data memory: Load sets it to the
	// program's data image and a store past its end extends it with
	// zeros. Bytes beyond it, up to the modelled size given to
	// NewMachine, read as zero.
	RAM     []byte
	ramSize int // modelled RAM bytes: the bound for every load and store

	MaxSteps int

	// Stats.
	Retired uint64
	Loads   uint64
	Stores  uint64
	Taken   uint64
	NotTkn  uint64

	// Timing observers, attached via Observe.
	observers []Observer
}

// Observer consumes the retired instruction stream for timing models.
type Observer interface {
	// Retire is called for every architecturally retired instruction.
	// taken reports branch outcome; shamt the effective shift amount.
	Retire(in Inst, taken bool, shamt uint32)
}

// NewMachine builds a machine with ramBytes of data memory. Host memory
// for the RAM is taken only as the program touches it.
func NewMachine(ramBytes int) *Machine {
	return &Machine{ramSize: ramBytes, MaxSteps: 200_000_000}
}

// Load initialises the machine from an assembled program: RAM becomes the
// data image alone, and the PC, registers and retirement statistics
// restart from zero, so nothing of a previously loaded program survives.
// Attached observers stay attached.
func (m *Machine) Load(p *Program) error {
	if len(p.Data) > m.ramSize {
		return fmt.Errorf("rv32: data image %d bytes exceeds RAM %d", len(p.Data), m.ramSize)
	}
	m.Text = p.Insts
	m.RAM = append(m.RAM[:0], p.Data...)
	m.PC = 0
	m.X = [NumRegs]uint32{}
	m.Retired, m.Loads, m.Stores, m.Taken, m.NotTkn = 0, 0, 0, 0, 0
	return nil
}

// Observe attaches a timing observer.
func (m *Machine) Observe(o Observer) { m.observers = append(m.observers, o) }

// Reg returns x[r].
func (m *Machine) Reg(r Reg) uint32 { return m.X[r] }

func (m *Machine) load(addr uint32, size int, signed bool) (uint32, error) {
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

func (m *Machine) store(addr uint32, size int, v uint32) error {
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
func (m *Machine) Step() (done bool, err error) {
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

func (m *Machine) notify(in Inst, taken bool, shamt uint32) {
	for _, o := range m.observers {
		o.Retire(in, taken, shamt)
	}
}

// Run executes until halt.
func (m *Machine) Run() error {
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
