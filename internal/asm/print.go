package asm

import "strconv"

// AppendStmt appends s to dst as one line of assembly source, newline
// included: the form Parse reads back into s, less the operands s's op
// does not take.
func AppendStmt(dst []byte, s Stmt) []byte {
	if s.Label != "" && s.Op != EQU {
		dst = append(dst, s.Label...)
		dst = append(dst, ':')
	}
	if s.Op == LabelOnly {
		return append(dst, '\n')
	}
	dst = append(dst, '\t')
	dst = append(dst, s.Op.String()...)
	sep := " "
	if int(s.Op) >= len(operands) {
		return append(dst, '\n')
	}
	for _, kind := range operands[s.Op] {
		dst = append(dst, sep...)
		sep = ", "
		switch kind {
		case opTa:
			dst = strconv.AppendUint(append(dst, 'T'), uint64(s.Ta), 10)
		case opTb:
			dst = strconv.AppendUint(append(dst, 'T'), uint64(s.Tb), 10)
		case opB:
			dst = strconv.AppendInt(dst, int64(s.B), 10)
		case opName:
			dst = append(dst, s.Label...)
		case opConst:
			dst = strconv.AppendInt(dst, int64(s.Imm), 10)
		default:
			if s.Target != "" {
				dst = append(dst, s.Target...)
			} else {
				dst = strconv.AppendInt(dst, int64(s.Imm), 10)
			}
		}
	}
	return append(dst, '\n')
}
