package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/xlate"
)

// stream renders a workload's inputs as bytes: every pool source, every
// priming manifest and the first requests of its stream.
func stream(in *inputs) []byte {
	var b bytes.Buffer
	for _, p := range in.pool {
		fmt.Fprintf(&b, "%s %d\n%s\n", p.Name, p.Iterations, p.Source)
	}
	for _, r := range in.prime {
		b.Write(r.manifest)
	}
	for i := uint64(0); i < 64; i++ {
		b.Write(in.next(i).manifest)
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := stream(w.inputs(1)), stream(w.inputs(1)), stream(w.inputs(2))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs on two calls", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

// TestProgramsRunAndFitTheirBand runs every program generated for seeds
// 1-3 through bench.Run, whose three-way checksum (RV32, functional and
// pipelined ART-9) must agree, and checks each lands in its workload's
// cycle band.
func TestProgramsRunAndFitTheirBand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every generated program")
	}
	bands := map[string][2]uint64{
		"short-jobs":    {1, 2000},
		"long-sim":      {100_000, 300_000},
		"serve-replay":  {1, 2000},
		"fleet-chunked": {1, 2000},
	}
	for _, w := range workloads {
		band := bands[w.name]
		for seed := int64(1); seed <= 3; seed++ {
			w, seed := w, seed
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				t.Parallel()
				in := w.inputs(seed)
				for _, p := range append(in.pool, in.variants...) {
					o, err := bench.Run(bench.Workload{Name: p.Name, Source: p.Source, Iterations: p.Iterations}, xlate.Options{})
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					if o.ART9Cycles < band[0] || o.ART9Cycles > band[1] {
						t.Errorf("%s: %d pipelined cycles, outside [%d, %d]", p.Name, o.ART9Cycles, band[0], band[1])
					}
				}
			})
		}
	}
}
