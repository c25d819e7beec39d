// Package gate implements the gate-level analyzer of the hardware-level
// evaluation framework (§III-B, Fig. 3 of the paper): a ternary
// standard-cell library, a structural netlist of the ART-9 datapath, a
// topological critical-path/power analyzer, and the "property description
// of the design technology" inputs — the 32 nm CNTFET ternary model of
// [7][8] and the binary-encoded FPGA emulation of Table V.
package gate

import "fmt"

// CellKind identifies a ternary standard cell ([7]–[10]).
type CellKind uint8

const (
	// Input is a pseudo-cell marking a primary input (zero delay).
	Input CellKind = iota
	// STI, NTI, PTI are the three ternary inverters of Fig. 1.
	STI
	NTI
	PTI
	// TNAND and TNOR are the primitive two-input gates of [7].
	TNAND
	TNOR
	// TAND, TOR, TXOR are the composed two-input logic gates.
	TAND
	TOR
	TXOR
	// TMUX is a 3:1 one-trit multiplexer with a trit select.
	TMUX
	// TDEC is a 1-trit to 3-way one-hot decoder.
	TDEC
	// THA and TFA are the ternary half/full adder cells ([9]).
	THA
	TFA
	// TCMP is a one-trit comparator slice (equality + order).
	TCMP
	// TDFF is a one-trit flip-flop ([11]-style storage).
	TDFF
	// TBUF is a buffer/driver.
	TBUF

	NumCellKinds
)

var kindNames = [NumCellKinds]string{
	"IN", "STI", "NTI", "PTI", "TNAND", "TNOR", "TAND", "TOR", "TXOR",
	"TMUX", "TDEC", "THA", "TFA", "TCMP", "TDFF", "TBUF",
}

// String returns the cell-library name of k.
func (k CellKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("cell(%d)", uint8(k))
}

// Cell is one instantiated cell.
type Cell struct {
	Kind  CellKind
	Name  string
	Fanin []int // indices of driving cells
}

// Netlist is a structural ternary netlist. Cells are appended in
// topological order (fanins always precede their consumers), which the
// builder guarantees and the analyzer exploits.
type Netlist struct {
	Cells []Cell
}

// Add appends a cell and returns its index.
func (n *Netlist) Add(kind CellKind, name string, fanin ...int) int {
	for _, f := range fanin {
		if f < 0 || f >= len(n.Cells) {
			panic(fmt.Sprintf("gate: cell %q fanin %d out of range", name, f))
		}
	}
	n.Cells = append(n.Cells, Cell{Kind: kind, Name: name, Fanin: fanin})
	return len(n.Cells) - 1
}

// AddInput appends a primary input.
func (n *Netlist) AddInput(name string) int { return n.Add(Input, name) }

// Count returns the number of cells of kind k.
func (n *Netlist) Count(k CellKind) int {
	c := 0
	for _, cell := range n.Cells {
		if cell.Kind == k {
			c++
		}
	}
	return c
}

// GateCount returns the number of combinational standard cells — the
// "total gates" metric of Table IV (inputs and flip-flops excluded).
func (n *Netlist) GateCount() int {
	c := 0
	for _, cell := range n.Cells {
		if cell.Kind != Input && cell.Kind != TDFF {
			c++
		}
	}
	return c
}

// FlopTrits returns the number of one-trit storage elements.
func (n *Netlist) FlopTrits() int { return n.Count(TDFF) }

// Histogram returns the per-kind cell counts.
func (n *Netlist) Histogram() map[CellKind]int {
	h := map[CellKind]int{}
	for _, c := range n.Cells {
		h[c.Kind]++
	}
	return h
}

// --- word-level helpers used by the builder ---

// word is a 9-trit bus: nine cell indices.
type word [9]int

// inputWord creates a 9-trit primary input bus.
func (n *Netlist) inputWord(name string) word {
	var w word
	for i := range w {
		w[i] = n.AddInput(fmt.Sprintf("%s[%d]", name, i))
	}
	return w
}

// flopWord creates a 9-trit register whose D inputs are d.
func (n *Netlist) flopWord(name string, d word) word {
	var w word
	for i := range w {
		w[i] = n.Add(TDFF, fmt.Sprintf("%s[%d]", name, i), d[i])
	}
	return w
}

// unary applies a one-input cell trit-wise.
func (n *Netlist) unary(kind CellKind, name string, a word) word {
	var w word
	for i := range w {
		w[i] = n.Add(kind, fmt.Sprintf("%s[%d]", name, i), a[i])
	}
	return w
}

// binary applies a two-input cell trit-wise.
func (n *Netlist) binary(kind CellKind, name string, a, b word) word {
	var w word
	for i := range w {
		w[i] = n.Add(kind, fmt.Sprintf("%s[%d]", name, i), a[i], b[i])
	}
	return w
}

// rippleAdder builds a 9-trit carry-ripple adder from TFA cells, the
// structure of [9]; returns the sum word (carry chain is internal).
func (n *Netlist) rippleAdder(name string, a, b word, cin int) word {
	var sum word
	carry := cin
	for i := 0; i < 9; i++ {
		s := n.Add(TFA, fmt.Sprintf("%s_fa[%d]", name, i), a[i], b[i], carry)
		// Model the carry as originating from the same cell: the next
		// stage depends on this TFA.
		sum[i] = s
		carry = s
	}
	return sum
}

// mux3 builds a trit-wise 3:1 multiplexer: sel routes one of x, y, z.
func (n *Netlist) mux3(name string, sel int, x, y, z word) word {
	var w word
	for i := range w {
		w[i] = n.Add(TMUX, fmt.Sprintf("%s[%d]", name, i), sel, x[i], y[i], z[i])
	}
	return w
}

// mux2 builds a 2-way selection (third leg tied to the first).
func (n *Netlist) mux2(name string, sel int, x, y word) word {
	return n.mux3(name, sel, x, y, x)
}

// comparator builds the 9-trit magnitude comparator: a TCMP slice per
// trit rippling from the most significant trit down (the COMP datapath).
func (n *Netlist) comparator(name string, a, b word) int {
	prev := -1
	for i := 8; i >= 0; i-- {
		if prev < 0 {
			prev = n.Add(TCMP, fmt.Sprintf("%s[%d]", name, i), a[i], b[i])
		} else {
			prev = n.Add(TCMP, fmt.Sprintf("%s[%d]", name, i), a[i], b[i], prev)
		}
	}
	return prev
}

// barrelShifter builds a two-stage ternary barrel shifter (shift by 0..8
// = stage for ×3^0/×3^1/×3^2 then a stage for ×3^0/×3^3/×3^6), with a
// direction stage, matching the SR/SL datapath.
func (n *Netlist) barrelShifter(name string, a word, amtLo, amtHi, dir int) word {
	// Stage 1: select among shift-by-0/1/2 (wiring permutations of a).
	shift := func(w word, by int) word {
		var out word
		for i := range out {
			src := i - by
			if src >= 0 && src < 9 {
				out[i] = w[src]
			} else {
				out[i] = w[i] // boundary trits zero-filled; keep dependency local
			}
		}
		return out
	}
	s1 := n.mux3(name+"_s1", amtLo, a, shift(a, 1), shift(a, 2))
	s2 := n.mux3(name+"_s2", amtHi, s1, shift(s1, 3), shift(s1, 6))
	// Direction: right shifts reuse the same network on the reversed
	// bus; modelled as a final 2:1 stage.
	rev := s2
	for i := range rev {
		rev[i] = s2[8-i]
	}
	return n.mux2(name+"_dir", dir, s2, rev)
}
