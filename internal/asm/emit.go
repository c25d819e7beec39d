package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// emit runs the second pass: encode every statement at its laid-out
// location.
func (b *assembler) emit() (*Program, error) {
	p := &Program{
		Text:    make([]isa.Inst, 0, b.text),
		Words:   make([]ternary.Word, 0, b.text),
		Data:    map[int]ternary.Word{},
		Symbols: make(map[string]int, len(b.labels)+len(b.equ)),
	}
	for n, v := range b.equ {
		p.Symbols[n] = v
	}
	for n, j := range b.labels {
		p.Symbols[n] = b.addr[j]
	}
	sec := secText
	for i := range b.stmts {
		switch b.stmts[i].Op {
		case TEXT:
			sec = secText
		case DATA:
			sec = secData
		default:
			if sec == secData {
				b.emitData(p, i)
			} else {
				b.emitText(p, i)
			}
		}
	}
	if err := b.errs.or(); err != nil {
		return nil, err
	}
	return p, nil
}

// emitData places a .word into the TDM image.
func (b *assembler) emitData(p *Program, i int) {
	st := &b.stmts[i]
	switch st.Op {
	case WORD:
		v, err := b.value(st)
		if err != nil {
			b.errorf(i, "%v", err)
			return
		}
		p.Data[b.addr[i]] = ternary.FromInt(v)
	case SPACE, ORG, LabelOnly, EQU:
		// Reserved space is implicitly zero; nothing to record.
	default:
		b.errorf(i, "instruction %q in .data section", st.Op.String())
	}
}

// emitText encodes statement i of the text section at its laid-out
// address.
func (b *assembler) emitText(p *Program, i int) {
	st := &b.stmts[i]
	addr := b.addr[i]
	if len(p.Text) != addr && len(b.errs) == 0 {
		// Layout and encoding disagree on a size: an assembler bug.
		b.errorf(i, "internal: statement laid out at %d, emitted at %d", addr, len(p.Text))
		return
	}
	switch st.Op {
	case LabelOnly, EQU:
	case ORG, SPACE:
		end := st.Imm
		if st.Op == SPACE {
			end += addr
		}
		for len(p.Text) < end {
			b.appendInst(p, i, isa.NOP())
		}
	case WORD:
		b.errorf(i, ".word in .text section (use .data)")
	case NOP:
		b.appendInst(p, i, isa.NOP())
	case HALT:
		// Jump-to-self; the simulator recognises it as program exit.
		b.appendInst(p, i, isa.Inst{Op: isa.JAL, Ta: Scratch})
	case LDI, LDA:
		// Layout has refused an LDI whose Target names no constant.
		v, err := b.value(st)
		if err != nil {
			b.errorf(i, "%v", err)
			return
		}
		if !ternary.FitsTrits(v, 9) {
			b.errorf(i, "%s: value %d exceeds 9 trits", st.Op, v)
			return
		}
		hi, lo := splitConst(v)
		b.appendInst(p, i, isa.Inst{Op: isa.LUI, Ta: st.Ta, Imm: hi})
		if lo != 0 || st.Op == LDA {
			b.appendInst(p, i, isa.Inst{Op: isa.LI, Ta: st.Ta, Imm: lo})
		}
	default:
		b.emitInst(p, i)
	}
}

// emitInst encodes a Table I instruction, reading only the fields its op
// takes.
func (b *assembler) emitInst(p *Program, i int) {
	st := &b.stmts[i]
	op, _ := st.Op.Inst()
	in := isa.Inst{Op: op}
	if op.HasTa() {
		in.Ta = st.Ta
	}
	if op.HasTb() {
		in.Tb = st.Tb
	}
	if op.IsBranch() {
		in.B = st.B
	}
	if !relaxable(st.Op) {
		if op.ImmTrits() > 0 {
			v, err := b.value(st)
			if err != nil {
				b.errorf(i, "%v", err)
				return
			}
			in.Imm = v
		}
		b.appendInst(p, i, in)
		return
	}

	off := st.Imm
	if st.Target != "" {
		j, ok := b.labels[st.Target]
		if !ok {
			b.errorf(i, "undefined label %q", st.Target)
			return
		}
		off = b.addr[j] - b.addr[i]
	} else if width := op.ImmTrits(); !ternary.FitsTrits(off, width) {
		what := "branch"
		if op == isa.JAL {
			what = "jump"
		}
		b.errorf(i, "%s offset %d exceeds %d trits", what, off, width)
		return
	}
	level := b.level[i]
	if level == relaxShort {
		in.Imm = off
		b.appendInst(p, i, in)
		return
	}
	target := b.addr[i] + off
	if op == isa.JAL {
		// Far jump: absolute address via Scratch, true link in Ta.
		b.appendFar(p, i, in.Ta, target)
		return
	}
	// Inverted branch over the long jump.
	inv := isa.BEQ
	if op == isa.BEQ {
		inv = isa.BNE
	}
	if level == relaxNear {
		// The JAL links into Scratch, whose value is clobbered.
		b.appendInst(p, i, isa.Inst{Op: inv, Tb: in.Tb, B: in.B, Imm: 2})
		b.appendInst(p, i, isa.Inst{Op: isa.JAL, Ta: Scratch, Imm: off - 1})
		return
	}
	b.appendInst(p, i, isa.Inst{Op: inv, Tb: in.Tb, B: in.B, Imm: 4})
	b.appendFar(p, i, Scratch, target)
}

// appendFar appends LUI/LI of target into Scratch and a JALR through it
// that links into link.
func (b *assembler) appendFar(p *Program, i int, link isa.Reg, target int) {
	hi, lo := splitConst(target)
	b.appendInst(p, i, isa.Inst{Op: isa.LUI, Ta: Scratch, Imm: hi})
	b.appendInst(p, i, isa.Inst{Op: isa.LI, Ta: Scratch, Imm: lo})
	b.appendInst(p, i, isa.Inst{Op: isa.JALR, Ta: link, Tb: Scratch})
}

// appendInst validates, encodes and appends one instruction.
func (b *assembler) appendInst(p *Program, i int, in isa.Inst) {
	w, err := isa.Encode(in)
	if err != nil {
		b.errorf(i, "%v", err)
		return
	}
	p.Text = append(p.Text, in)
	p.Words = append(p.Words, w)
}

// Disassemble renders an encoded TIM image as assembly text, one
// instruction per line with addresses, for the CLI and for debugging
// translated programs.
func Disassemble(words []ternary.Word) string {
	var b strings.Builder
	for i, w := range words {
		in, err := isa.Decode(w)
		if err != nil {
			fmt.Fprintf(&b, "%5d: %v  <illegal: %v>\n", i, w, err)
			continue
		}
		fmt.Fprintf(&b, "%5d: %v  %s\n", i, w, in)
	}
	return b.String()
}
