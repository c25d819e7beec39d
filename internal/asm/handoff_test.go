package asm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/rv32"
	"repro/internal/xlate"
)

// TestBuildMatchesAssemble holds the translator's two hand-offs equal on
// every workload under each translator option set: building its
// statements and assembling its text give the same program, and parsing
// the text gives back the statements.
func TestBuildMatchesAssemble(t *testing.T) {
	for _, w := range suiteWorkloads() {
		rvProg, err := rv32.Assemble(w.Source)
		if err != nil {
			t.Fatalf("%s: rv32 assemble: %v", w.Name, err)
		}
		for _, opts := range translatorOptions {
			name := fmt.Sprintf("%s/%+v", w.Name, opts)
			out, err := xlate.Translate(rvProg, opts)
			if err != nil {
				t.Fatalf("%s: translate: %v", name, err)
			}
			built, err := asm.Build(out.Lines)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			assembled, err := asm.Assemble(out.Asm)
			if err != nil {
				t.Fatalf("%s: assemble: %v", name, err)
			}
			if !reflect.DeepEqual(built, assembled) {
				t.Errorf("%s: built and assembled programs differ", name)
			}
			parsed, err := asm.Parse(out.Asm)
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			if len(parsed) != len(out.Lines) {
				t.Fatalf("%s: parsed %d statements from %d lines", name, len(parsed), len(out.Lines))
			}
			for i, st := range parsed {
				st.SrcLine = 0
				if st != out.Lines[i] {
					t.Fatalf("%s: statement %d parses as %+v, was %+v", name, i, st, out.Lines[i])
				}
			}
		}
	}
}
