// Package asm implements the ART-9 assembler: the textual front door of
// both frameworks in the paper. It turns assembly statements into TIM
// images (encoded 9-trit instructions) and TDM initialisation, resolving
// labels, expanding pseudo-instructions and relaxing out-of-range
// branches.
//
// Statements come in two ways. The translator hands over typed
// statements (Stmt), which Build lays out and encodes; Assemble parses
// source text into the same statements and calls Build, so one code
// generator serves both.
//
// Syntax (one statement per line):
//
//	; comment   # comment   // comment
//	label:               ; text or data label at the current location
//	MNEMONIC operands    ; any Table I instruction, e.g.  ADD T1, T2
//	NOP                  ; pseudo: ADDI T0, 0 (§IV-B)
//	LDI T3, 1234         ; pseudo: load full 9-trit constant (LUI [+ LI])
//	LDA T3, label        ; pseudo: load an address/symbol
//	HALT                 ; pseudo: jump-to-self, stops the simulator
//	.text / .data        ; section switch (TIM vs TDM)
//	.org N               ; advance the location counter
//	.word N [, N]...     ; literal words (decimal or 0t trit literal)
//	.space N             ; reserve N zero words
//	.equ NAME, N         ; assemble-time constant
//
// Labels and .equ constants share one namespace: each name is declared
// once. Branch operands may be numeric offsets or labels; label branches
// that do not reach are relaxed automatically (inverted branch over a
// JAL, or an absolute LDA+JALR for far targets) through Scratch.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/ternary"
)

// Program is the output of the assembler: a TIM image plus TDM
// initialisation and the symbol table.
type Program struct {
	// Text is the decoded instruction stream, one entry per TIM word:
	// len(Text) == len(Words) and Text[i] == isa.DecodePacked(
	// ternary.Pack(Words[i])) for every i. The simulator fetches from Text
	// instead of decoding TIM (sim.State.Load), so it relies on this.
	Text []isa.Inst
	// Words is the encoded TIM image, parallel to Text.
	Words []ternary.Word
	// Data maps TDM addresses to initial words.
	Data map[int]ternary.Word
	// Symbols maps label/constant names to values.
	Symbols map[string]int
}

// TextCells returns the number of ternary memory cells the program's
// instructions occupy — the Fig. 5 metric for ART-9.
func (p *Program) TextCells() int { return len(p.Text) * ternary.WordTrits }

// Scratch is T8, the register that branch relaxation and HALT's link
// clobber.
const Scratch = isa.Reg(8)

// Op is the operation of a statement. Table I's instructions keep their
// isa.Op numbers, so Op(isa.ADD) is ADD; the pseudos, LabelOnly and the
// directives follow.
type Op uint8

const (
	NOP       Op = isa.NumOps + iota // ADDI T0, 0 (§IV-B)
	HALT                             // JAL Scratch, 0: jump to self, stops the simulator
	LDI                              // Ta = a 9-trit constant: LUI [+ LI]
	LDA                              // Ta = a label's address or a constant: LUI + LI
	LabelOnly                        // no instruction: binds Label alone

	// Directives, which only source text declares.
	TEXT  // .text: later statements go to TIM
	DATA  // .data: later statements go to TDM
	ORG   // .org Imm: advance the location counter to Imm
	SPACE // .space Imm: reserve Imm zero words
	WORD  // .word: one data word, Imm or the value Target names
	EQU   // .equ: Label names the constant Imm

	numOps
)

var opNames = [numOps - isa.NumOps]string{
	"NOP", "HALT", "LDI", "LDA", "(label)",
	".text", ".data", ".org", ".space", ".word", ".equ",
}

// String returns the mnemonic or directive of o.
func (o Op) String() string {
	switch {
	case o < isa.NumOps:
		return isa.Op(o).String()
	case o < numOps:
		return opNames[o-isa.NumOps]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Inst returns the Table I instruction o names; ok is false for a
// pseudo, LabelOnly or a directive.
func (o Op) Inst() (op isa.Op, ok bool) { return isa.Op(o), o < isa.NumOps }

// Stmt is one ART-9 assembly statement: an instruction, a pseudo, a
// label alone or a directive. Operands the op does not take are ignored,
// as the printer leaves them out.
type Stmt struct {
	Label   string // name bound to the statement's address (EQU: to Imm)
	Op      Op
	Ta, Tb  isa.Reg
	B       ternary.Trit // BEQ/BNE condition trit
	SrcLine int32        // 1-based source line; 0 for generated statements
	Imm     int          // immediate, numeric branch offset or constant
	// Target is a symbolic operand. A branch or JAL target names a
	// label, an LDI value a .equ constant, and any other value either.
	// When set, Imm is ignored.
	Target string
}

// operand is one source operand of a statement.
type operand uint8

const (
	opTa    operand = iota // register in Ta
	opTb                   // register in Tb
	opB                    // condition trit in B
	opValue                // Imm, or the label or constant Target names
	opConst                // Imm alone, a constant known where it appears
	opName                 // the constant Label names
)

// operands lists each op's source operands in order. Table I's come from
// isa's field rules: Ta, Tb, the condition trit, then the immediate.
var operands = func() (t [numOps][]operand) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		var f []operand
		if op.HasTa() {
			f = append(f, opTa)
		}
		if op.HasTb() {
			f = append(f, opTb)
		}
		if op.IsBranch() {
			f = append(f, opB)
		}
		if op.ImmTrits() > 0 {
			f = append(f, opValue)
		}
		t[op] = f
	}
	t[LDI] = []operand{opTa, opValue}
	t[LDA] = []operand{opTa, opValue}
	t[ORG] = []operand{opConst}
	t[SPACE] = []operand{opConst}
	t[WORD] = []operand{opValue}
	t[EQU] = []operand{opName, opConst}
	return t
}()

// opByName maps an upper-case mnemonic or directive to its op.
var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for o := Op(0); o < numOps; o++ {
		if o != LabelOnly {
			m[strings.ToUpper(o.String())] = o
		}
	}
	return m
}()

// Assemble parses src into statements and builds them.
func Assemble(src string) (*Program, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Build(stmts)
}

// Parse reads source text into statements, parsing each operand once.
// Operands of .equ, .org and .space, and condition trits, are evaluated
// here (a condition trit may name a .equ constant declared later); any
// other name is kept as a Target for Build to resolve, so labels and
// constants may be used before they are declared.
func Parse(src string) ([]Stmt, error) {
	p := parser{stmts: make([]Stmt, 0, strings.Count(src, "\n")+1)}
	for n := int32(1); src != ""; n++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		p.line(n, line)
	}
	for _, f := range p.trits {
		st := &p.stmts[f.stmt]
		v, err := p.constant(f.name)
		if err == nil {
			st.B, err = trit(st.Op, v)
		}
		if err != nil {
			p.errorf(st.SrcLine, "%v", err)
		}
	}
	return p.stmts, p.errs.or()
}

type parser struct {
	stmts []Stmt
	equ   map[string]int
	// trits are condition trits naming a constant not declared yet.
	trits []pendingTrit
	errs  errList
}

type pendingTrit struct {
	stmt int
	name string
}

type errList []error

func (e errList) Error() string {
	var b strings.Builder
	for i, err := range e {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(err.Error())
	}
	return b.String()
}

func (e errList) or() error {
	if len(e) == 0 {
		return nil
	}
	return e
}

func (p *parser) errorf(line int32, format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

// line parses one source line: its labels, then at most one statement.
// The last label binds to the line's instruction or data; any other
// label becomes a statement of its own.
func (p *parser) line(n int32, s string) {
	s = stripComment(s)
	label := ""
	for {
		s = strings.TrimSpace(s)
		i := strings.IndexByte(s, ':')
		if i < 0 {
			break
		}
		name := strings.TrimSpace(s[:i])
		if !isIdent(name) {
			break
		}
		p.bindLabel(n, label)
		label, s = name, s[i+1:]
	}
	if s == "" {
		p.bindLabel(n, label)
		return
	}
	head, rest := s, ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		head, rest = s[:i], s[i:]
	}
	var buf [4]string
	args := splitArgs(buf[:0], rest)
	op, ok := opByName[strings.ToUpper(head)]
	switch {
	case !ok && strings.HasPrefix(head, "."):
		p.errorf(n, "unknown directive %s", head)
	case !ok:
		p.errorf(n, "unknown mnemonic %q", strings.ToUpper(head))
	case op == WORD:
		if len(args) == 0 {
			p.errorf(n, ".word wants at least one value")
		}
		for k := range args {
			p.statement(Stmt{Label: label, Op: WORD, SrcLine: n}, args[k:k+1])
			label = ""
		}
	case op == TEXT || op == DATA || op == EQU:
		p.bindLabel(n, label)
		p.statement(Stmt{Op: op, SrcLine: n}, args)
	default:
		p.statement(Stmt{Label: label, Op: op, SrcLine: n}, args)
	}
}

// bindLabel appends a statement binding label alone, if there is one.
func (p *parser) bindLabel(n int32, label string) {
	if label != "" {
		p.stmts = append(p.stmts, Stmt{Label: label, Op: LabelOnly, SrcLine: n})
	}
}

// statement parses args as the operands of st's op and appends st.
func (p *parser) statement(st Stmt, args []string) {
	shape := operands[st.Op]
	if len(args) != len(shape) {
		p.errorf(st.SrcLine, "%s wants %d operands, got %d", st.Op, len(shape), len(args))
		return
	}
	pending := ""
	for k, kind := range shape {
		a := args[k]
		var err error
		switch kind {
		case opTa:
			st.Ta, err = isa.ParseReg(a)
		case opTb:
			st.Tb, err = isa.ParseReg(a)
		case opB:
			if _, ok := p.equ[a]; !ok && isIdent(a) {
				pending = a
				continue
			}
			var v int
			if v, err = p.constant(a); err == nil {
				st.B, err = trit(st.Op, v)
			}
		case opName:
			st.Label = a
			if !isIdent(a) {
				err = fmt.Errorf("%s: invalid name %q", st.Op, a)
			}
		case opConst:
			st.Imm, err = p.constant(a)
			if err == nil && st.Imm < 0 && st.Op != EQU {
				err = fmt.Errorf("%s: negative value %d", st.Op, st.Imm)
			}
		default:
			if isIdent(a) {
				st.Target = a
			} else {
				st.Imm, err = literal(a)
			}
		}
		if err != nil {
			p.errorf(st.SrcLine, "%v", err)
			return
		}
	}
	if pending != "" {
		p.trits = append(p.trits, pendingTrit{len(p.stmts), pending})
	}
	if _, dup := p.equ[st.Label]; st.Op == EQU && !dup {
		if p.equ == nil {
			p.equ = map[string]int{}
		}
		p.equ[st.Label] = st.Imm
	}
	p.stmts = append(p.stmts, st)
}

// trit converts v to the condition trit of op.
func trit(op Op, v int) (ternary.Trit, error) {
	if v < -1 || v > 1 {
		return 0, fmt.Errorf("%s condition trit %d out of range", op, v)
	}
	return ternary.Trit(v), nil
}

// constant evaluates an operand that must be known where it appears: a
// number or a .equ constant declared before it.
func (p *parser) constant(s string) (int, error) {
	if v, ok := p.equ[s]; ok {
		return v, nil
	}
	return literal(s)
}

// literal evaluates a decimal or 0t trit literal.
func literal(s string) (int, error) {
	if strings.HasPrefix(s, "0t") || strings.HasPrefix(s, "-0t") {
		neg := strings.HasPrefix(s, "-")
		w, err := ternary.ParseWord(strings.TrimPrefix(s, "-"))
		if err != nil {
			return 0, err
		}
		if neg {
			return -w.Int(), nil
		}
		return w.Int(), nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("cannot evaluate %q as a constant", s)
	}
	return v, nil
}

// stripComment removes ;, # and // comments.
func stripComment(s string) string {
	for _, sep := range []string{";", "#", "//"} {
		if i := strings.Index(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

// splitArgs appends the comma-separated operands of s to dst, dropping
// empty ones.
func splitArgs(dst []string, s string) []string {
	for s != "" {
		var f string
		f, s, _ = strings.Cut(s, ",")
		if f = strings.TrimSpace(f); f != "" {
			dst = append(dst, f)
		}
	}
	return dst
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
