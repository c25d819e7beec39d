// Package asm implements the ART-9 assembler: the textual front door of
// both frameworks in the paper. It turns assembly source into TIM images
// (encoded 9-trit instructions) and TDM initialisation, resolving labels,
// expanding pseudo-instructions and relaxing out-of-range branches.
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
// Branch operands may be numeric offsets or labels; label branches that do
// not reach are relaxed automatically (inverted branch over a JAL, or an
// absolute LDA+JALR for far targets) using a scratch register that defaults
// to T8.
package asm

import (
	"fmt"
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
	// Lines maps each Text index to its 1-based source line, for traces.
	Lines []int
}

// TextCells returns the number of ternary memory cells the program's
// instructions occupy — the Fig. 5 metric for ART-9.
func (p *Program) TextCells() int { return len(p.Text) * ternary.WordTrits }

// Options configure assembly.
type Options struct {
	// ScratchReg is the register used by branch relaxation and by the
	// LDA/far-jump pseudos. Defaults to T8.
	ScratchReg isa.Reg
	// NoRelax disables branch relaxation: out-of-range label branches
	// become errors instead.
	NoRelax bool
}

// Assemble assembles src with default options.
func Assemble(src string) (*Program, error) { return AssembleOpts(src, Options{ScratchReg: 8}) }

// AssembleOpts assembles src with explicit options.
func AssembleOpts(src string, opts Options) (*Program, error) {
	a := &assembler{opts: opts, equ: map[string]int{}, labels: map[string]int{}}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	return a.emit()
}

// statement is one parsed source statement bound to its location.
type statement struct {
	line int // 1-based source line
	kind stmtKind

	// instruction statements
	mnemonic string
	args     []string

	// directive payloads
	values []string // .word
	count  int      // .space / .org target
	name   string   // .equ
}

type stmtKind uint8

const (
	stInst stmtKind = iota
	stWord
	stSpace
	stOrg
)

type section uint8

const (
	secText section = iota
	secData
)

// item is a laid-out unit: an instruction group (a source statement that
// expands to one or more machine instructions) or data words.
type item struct {
	stmt    *statement
	sec     section
	addr    int // location counter at start of item
	size    int // words occupied (instructions for text)
	relaxed int // relaxation level for branches: 0 short, 1 medium, 2 far
}

type assembler struct {
	opts   Options
	stmts  []*statement
	secOf  []section // parallel to stmts
	equ    map[string]int
	labels map[string]int // name -> address (filled during layout)
	// label declarations in source order: (name, stmt index, section)
	labelDecls []labelDecl
	items      []*item
	errs       errList
}

type labelDecl struct {
	name string
	idx  int // index into stmts of the following statement (== len at EOF)
	sec  section
	line int
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

func (a *assembler) errorf(line int, format string, args ...interface{}) {
	a.errs = append(a.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

// parse splits the source into statements, labels and .equ definitions.
func (a *assembler) parse(src string) error {
	sec := secText
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		s := stripComment(raw)
		// Peel off any leading labels (several may share a line).
		for {
			s = strings.TrimSpace(s)
			i := strings.Index(s, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(s[:i])
			if !isIdent(name) {
				break
			}
			a.labelDecls = append(a.labelDecls, labelDecl{name, len(a.stmts), sec, line})
			s = s[i+1:]
		}
		if s == "" {
			continue
		}
		fields := splitOperands(s)
		head := strings.ToUpper(fields[0])
		args := fields[1:]
		switch head {
		case ".TEXT":
			sec = secText
		case ".DATA":
			sec = secData
		case ".EQU":
			if len(args) != 2 {
				a.errorf(line, ".equ wants NAME, VALUE")
				continue
			}
			if !isIdent(args[0]) {
				a.errorf(line, ".equ: invalid name %q", args[0])
				continue
			}
			v, err := a.evalConst(args[1], line)
			if err != nil {
				a.errs = append(a.errs, err)
				continue
			}
			if _, dup := a.equ[args[0]]; dup {
				a.errorf(line, ".equ: duplicate constant %q", args[0])
				continue
			}
			a.equ[args[0]] = v
		case ".WORD":
			if len(args) == 0 {
				a.errorf(line, ".word wants at least one value")
				continue
			}
			a.stmts = append(a.stmts, &statement{line: line, kind: stWord, values: args})
			a.secOf = append(a.secOf, sec)
		case ".SPACE", ".ORG":
			if len(args) != 1 {
				a.errorf(line, "%s wants one value", strings.ToLower(head))
				continue
			}
			v, err := a.evalConst(args[0], line)
			if err != nil {
				a.errs = append(a.errs, err)
				continue
			}
			if v < 0 {
				a.errorf(line, "%s: negative value %d", strings.ToLower(head), v)
				continue
			}
			kind := stSpace
			if head == ".ORG" {
				kind = stOrg
			}
			a.stmts = append(a.stmts, &statement{line: line, kind: kind, count: v})
			a.secOf = append(a.secOf, sec)
		default:
			if strings.HasPrefix(head, ".") {
				a.errorf(line, "unknown directive %s", fields[0])
				continue
			}
			a.stmts = append(a.stmts, &statement{line: line, kind: stInst, mnemonic: head, args: args})
			a.secOf = append(a.secOf, sec)
		}
	}
	return a.errs.or()
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

// splitOperands splits "OP a, b, c" into ["OP", "a", "b", "c"].
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return []string{s}
	}
	out := []string{s[:i]}
	for _, f := range strings.Split(s[i:], ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
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
