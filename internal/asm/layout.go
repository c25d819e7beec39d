package asm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Relaxation levels for label-target control transfers.
const (
	relaxShort = iota // single instruction, immediate reaches
	relaxNear         // branch: inverted branch over a JAL
	relaxFar          // absolute target via LDA + JALR
)

type section uint8

const (
	secText section = iota
	secData
)

// Build lays out stmts, relaxes label branches that do not reach, and
// encodes the result: the one code generator behind Assemble and the
// translator.
func Build(stmts []Stmt) (*Program, error) {
	b := &assembler{stmts: stmts}
	if err := b.declare(); err != nil {
		return nil, err
	}
	if err := b.layout(); err != nil {
		return nil, err
	}
	return b.emit()
}

type assembler struct {
	stmts  []Stmt
	labels map[string]int // label -> index of the statement it binds to
	equ    map[string]int // .equ constant -> value
	addr   []int          // each statement's location in its section
	level  []uint8        // relaxation level of each label-target transfer
	text   int            // TIM words laid out
	errs   errList
}

func (b *assembler) errorf(i int, format string, args ...interface{}) {
	where := fmt.Sprintf("statement %d", i+1)
	if n := b.stmts[i].SrcLine; n > 0 {
		where = fmt.Sprintf("line %d", n)
	}
	b.errs = append(b.errs, fmt.Errorf("%s: %s", where, fmt.Sprintf(format, args...)))
}

// declare enters every label and .equ constant into one namespace, in
// which each name is declared once.
func (b *assembler) declare() error {
	n := 0
	for i := range b.stmts {
		if b.stmts[i].Label != "" {
			n++
		}
	}
	b.labels = make(map[string]int, n)
	for i := range b.stmts {
		st := &b.stmts[i]
		if st.Label == "" {
			if st.Op == EQU {
				b.errorf(i, ".equ wants NAME, VALUE")
			}
			continue
		}
		_, isLabel := b.labels[st.Label]
		_, isEqu := b.equ[st.Label]
		switch {
		case isLabel && st.Op != EQU:
			b.errorf(i, "duplicate label %q", st.Label)
		case isEqu && st.Op == EQU:
			b.errorf(i, ".equ: duplicate constant %q", st.Label)
		case isLabel || isEqu:
			b.errorf(i, "%q is both a label and a .equ constant", st.Label)
		case st.Op == EQU:
			if b.equ == nil {
				b.equ = map[string]int{}
			}
			b.equ[st.Label] = st.Imm
		default:
			b.labels[st.Label] = i
		}
	}
	return b.errs.or()
}

// layout assigns every statement its location, widening label branches
// that do not reach until a fixed point. Relaxation levels only ever
// increase, so the loop terminates.
func (b *assembler) layout() error {
	b.addr = make([]int, len(b.stmts))
	b.level = make([]uint8, len(b.stmts))
	for iter := 0; ; iter++ {
		if iter > 2+len(b.stmts) {
			return errors.New("asm: branch relaxation did not converge")
		}
		var lc [2]int
		sec := secText
		for i := range b.stmts {
			st := &b.stmts[i]
			b.addr[i] = lc[sec]
			switch st.Op {
			case TEXT:
				sec = secText
			case DATA:
				sec = secData
			case ORG:
				if st.Imm < lc[sec] {
					b.errorf(i, ".org %d before current location %d", st.Imm, lc[sec])
					continue
				}
				lc[sec] = st.Imm
			default:
				lc[sec] += b.size(i)
			}
		}
		if err := b.errs.or(); err != nil {
			return err
		}
		b.text = lc[secText]

		// Relaxing a transfer in .data is harmless: emit refuses it.
		changed := false
		for i := range b.stmts {
			st := &b.stmts[i]
			if st.Target == "" || !relaxable(st.Op) {
				continue
			}
			j, ok := b.labels[st.Target]
			if !ok {
				continue // undefined label reported at emit
			}
			if need := neededLevel(st.Op, b.addr[i], b.addr[j]); need > b.level[i] {
				b.level[i] = need
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

// relaxable reports whether op's target may be relaxed.
func relaxable(op Op) bool {
	return op == Op(isa.BEQ) || op == Op(isa.BNE) || op == Op(isa.JAL)
}

// size returns the number of words statement i occupies at its
// relaxation level.
func (b *assembler) size(i int) int {
	st := &b.stmts[i]
	switch st.Op {
	case LabelOnly, EQU:
		return 0
	case SPACE:
		if st.Imm < 0 {
			b.errorf(i, ".space: negative value %d", st.Imm)
			return 0
		}
		return st.Imm
	case LDA:
		return 2
	case LDI:
		v, err := b.constant(st)
		if err != nil {
			b.errorf(i, "%v", err)
			return 0
		}
		if _, lo := splitConst(v); lo != 0 {
			return 2
		}
		return 1
	case Op(isa.BEQ), Op(isa.BNE):
		return [...]int{relaxShort: 1, relaxNear: 2, relaxFar: 4}[b.level[i]]
	case Op(isa.JAL):
		if b.level[i] == relaxShort {
			return 1
		}
		return 3
	}
	return 1
}

// neededLevel picks the smallest relaxation level at which op at addr
// reaches target. JAL has no near form.
func neededLevel(op Op, addr, target int) uint8 {
	if op == Op(isa.JAL) {
		if ternary.FitsTrits(target-addr, 5) {
			return relaxShort
		}
		return relaxFar
	}
	if ternary.FitsTrits(target-addr, 4) {
		return relaxShort
	}
	// Near form: the JAL sits at addr+1.
	if ternary.FitsTrits(target-(addr+1), 5) {
		return relaxNear
	}
	return relaxFar
}

// splitConst decomposes a 9-trit value into hi·3^5 + lo with lo in the
// 5-trit balanced range, the LUI/LI pair of §IV-A.
func splitConst(v int) (hi, lo int) {
	w := ternary.FromInt(v)
	lo = w.Field(0, 4)
	hi = w.Field(5, 8)
	return hi, lo
}

// constant resolves an operand that sizes its statement, so it is known
// before layout: Imm, or the .equ constant Target names.
func (b *assembler) constant(st *Stmt) (int, error) {
	if st.Target == "" {
		return st.Imm, nil
	}
	if v, ok := b.equ[st.Target]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("cannot evaluate %q as a constant", st.Target)
}

// value resolves a value operand: Imm, or the label or .equ constant
// Target names.
func (b *assembler) value(st *Stmt) (int, error) {
	if st.Target != "" {
		if j, ok := b.labels[st.Target]; ok {
			return b.addr[j], nil
		}
	}
	return b.constant(st)
}
