package rv32

import (
	"encoding/binary"
	"testing"
)

// FuzzRunVsReference holds Machine.Run, and Machine.Step taken one
// instruction at a time, equal to the reference stepper with the
// per-instruction models on random programs: code is read as 32-bit words
// through Decode (undecodable words are skipped) with an EBREAK appended,
// regs seeds x1..x31 four bytes each, and serial switches PicoRV32 to its
// serial shifter. RAM is 256 bytes, of which a 64-byte data image is
// touched from the start, and the budget 4,096 steps, so random addresses
// fault and loops end.
func FuzzRunVsReference(f *testing.F) {
	f.Add([]byte{0x6f, 0x00, 0x00, 0x00}, []byte{}, false) // jal zero, 0: jump-to-self halt
	f.Fuzz(func(t *testing.T, code, regs []byte, serial bool) {
		p := &Program{Data: make([]byte, 64)}
		for i := range p.Data {
			p.Data[i] = byte(i * 37)
		}
		for len(code) >= 4 && len(p.Insts) < 64 {
			if in, err := Decode(binary.LittleEndian.Uint32(code)); err == nil {
				p.Insts = append(p.Insts, in)
			}
			code = code[4:]
		}
		p.Insts = append(p.Insts, Inst{Op: EBREAK})
		c := refCase{Prog: p, RAMBytes: 256, MaxSteps: 4096}
		for r := 1; r < NumRegs && len(regs) >= 4; r++ {
			c.Regs[r] = binary.LittleEndian.Uint32(regs)
			regs = regs[4:]
		}
		if serial {
			c.Pico = func(p *PicoRV32Model) { p.SerialShift = true }
		}
		checkAgainstReference(t, "run", c)
		c.Single = true
		checkAgainstReference(t, "single steps", c)
	})
}
