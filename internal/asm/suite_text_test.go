package asm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/rv32"
	"repro/internal/ternary"
	"repro/internal/xlate"
)

// TestSuiteTextMatchesWords checks the Program.Text contract on the
// translated images of the paper's four benchmark programs: one decoded
// instruction per TIM word, each equal to the decode of that word.
func TestSuiteTextMatchesWords(t *testing.T) {
	for _, w := range bench.Workloads {
		rvProg, err := rv32.Assemble(w.Source)
		if err != nil {
			t.Fatalf("%s: rv32 assemble: %v", w.Name, err)
		}
		out, err := xlate.Translate(rvProg, xlate.Options{})
		if err != nil {
			t.Fatalf("%s: translate: %v", w.Name, err)
		}
		p, err := asm.Assemble(out.Asm)
		if err != nil {
			t.Fatalf("%s: assemble: %v", w.Name, err)
		}
		if len(p.Text) != len(p.Words) {
			t.Fatalf("%s: %d decoded instructions for %d words", w.Name, len(p.Text), len(p.Words))
		}
		for i, word := range p.Words {
			if in, err := isa.DecodePacked(ternary.Pack(word)); err != nil || in != p.Text[i] {
				t.Errorf("%s: Text[%d] = %v, but Words[%d] decodes as %v (%v)", w.Name, i, p.Text[i], i, in, err)
			}
		}
		t.Logf("%s: %d words", w.Name, len(p.Words))
	}
}
