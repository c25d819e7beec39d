// Dhrystone reproduces the headline result of the paper end to end: the
// Dhrystone-class benchmark runs on the translated ternary core and on
// both binary baselines, then the hardware-level framework maps the cycle
// counts onto the CNTFET and FPGA technologies, printing the DMIPS/MHz of
// Table II and the DMIPS/W of Tables IV and V.
package main

import (
	"fmt"
	"log"

	art9 "repro"
)

func main() {
	var dhry art9.Workload
	for _, w := range art9.Benchmarks() {
		if w.Name == "dhrystone" {
			dhry = w
		}
	}
	o, err := art9.RunBenchmark(dhry)
	if err != nil {
		log.Fatal(err)
	}
	iters := float64(dhry.Iterations)
	perIter := float64(o.ART9Cycles) / iters
	dmipsPerMHz := 1e6 / (1757 * perIter)

	fmt.Printf("%s\n\n", dhry.Description)
	fmt.Printf("cycles/iteration:  ART-9 %.0f | VexRiscv %.0f | PicoRV32 %.0f\n",
		perIter, float64(o.VexCycles)/iters, float64(o.PicoCycles)/iters)
	fmt.Printf("DMIPS/MHz:         ART-9 %.2f | VexRiscv %.2f | PicoRV32 %.2f   (Table II)\n\n",
		dmipsPerMHz,
		1e6/(1757*float64(o.VexCycles)/iters),
		1e6/(1757*float64(o.PicoCycles)/iters))

	// Hardware-level evaluation on both technologies.
	for _, tech := range []*art9.Technology{art9.CNTFET32(), art9.StratixVEmulation()} {
		an := art9.BuildNetlist(tech)
		freq := an.FmaxMHz
		memTrits := 0
		if tech.Name != "CNTFET-32nm" {
			freq = 150
			memTrits = 2 * 256 * 9
		}
		p := an.PowerW(tech, freq, memTrits, o.MemAccessRate())
		dmips := dmipsPerMHz * freq
		fmt.Printf("%-24s %6.1f MHz  %10.4g W  %10.4g DMIPS/W\n",
			tech.Name, freq, p, dmips/p)
	}
	fmt.Println("\n(Tables IV/V: the CNTFET core lands in the 10^6 DMIPS/W class,")
	fmt.Println("the FPGA emulation in the 10^1 class — a five-order-of-magnitude")
	fmt.Println("gap from the emerging ternary device.)")
}
