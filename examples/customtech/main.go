// Customtech demonstrates the central claim of the hardware-level
// framework (§III-B): the ART-9 core can be evaluated "for arbitrary
// design technology" by swapping the technology property description.
// Besides the two shipped models (CNTFET, FPGA emulation), we define a
// hypothetical graphene-barristor ternary process (the paper's reference
// [5]/[9] device class) and compare all three operating points — without
// touching the netlist, the simulator, or the estimator.
package main

import (
	"fmt"

	art9 "repro"
)

// grapheneBarristor sketches a ternary technology from the
// graphene-barristor full-adder literature ([9]): faster inverters than
// the CNTFET model, slower adders, higher leakage.
func grapheneBarristor() *art9.Technology {
	t := art9.CNTFET32()
	t.Name = "graphene-barristor (hypothetical)"
	for kind, p := range t.Props {
		p.DelayPs *= 0.8  // faster switching
		p.LeakNW *= 2.5   // leakier barristor stack
		p.EnergyFJ *= 1.4 // higher node capacitance
		t.Props[kind] = p
	}
	t.Activity = 0.08
	return t
}

func main() {
	// Dhrystone-class cycles/iteration from the benchmark suite give
	// the DMIPS numerator for every technology.
	var dhry art9.Workload
	for _, w := range art9.Benchmarks() {
		if w.Name == "dhrystone" {
			dhry = w
		}
	}
	o, err := art9.RunBenchmark(dhry)
	if err != nil {
		panic(err)
	}
	cyclesPerIter := float64(o.ART9Cycles) / float64(dhry.Iterations)
	dmipsPerMHz := 1e6 / (1757 * cyclesPerIter)

	fmt.Println("the same ART-9 netlist under three technology descriptions:")
	fmt.Printf("%-36s %10s %12s %12s\n", "technology", "fmax", "power@fmax", "DMIPS/W")
	for _, tech := range []*art9.Technology{
		art9.CNTFET32(),
		grapheneBarristor(),
		art9.StratixVEmulation(),
	} {
		an := art9.BuildNetlist(tech)
		freq := an.FmaxMHz
		memTrits := 0
		if tech.StaticW > 0 { // the FPGA model powers a whole device
			freq = 150
			memTrits = 2 * 256 * 9
		}
		p := an.PowerW(tech, freq, memTrits, o.MemAccessRate())
		fmt.Printf("%-36s %7.1fMHz %11.4gW %12.4g\n",
			tech.Name, an.FmaxMHz, p, dmipsPerMHz*freq/p)
	}

	fmt.Println("\nthe framework inputs (Fig. 3) stay fixed — only the property")
	fmt.Println("description of the design technology changes, which is exactly")
	fmt.Println("the workflow the paper proposes for emerging ternary devices.")
}
