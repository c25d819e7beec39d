// Command art9-bench regenerates the evaluation artifacts of the paper:
// Fig. 5 (benchmark memory cells) and Tables II–V, by running the §V-A
// benchmark suite on every core model.
//
// Usage:
//
//	art9-bench                 # all tables and the figure
//	art9-bench -table fig5     # one artifact: fig5, 2, 3, 4 or 5
//	art9-bench -run gemm       # one workload with detailed metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/xlate"
)

func main() {
	table := flag.String("table", "", "one artifact: fig5, 2, 3, 4, 5")
	run := flag.String("run", "", "run one workload with detail")
	diag := flag.Bool("diag", false, "with -run: show translation diagnostics")
	flag.Parse()

	switch {
	case *run != "":
		w, ok := bench.ByName(*run)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *run))
		}
		o, err := bench.Run(w, xlate.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload          %s — %s\n", w.Name, w.Description)
		fmt.Printf("checksum          %d (RV32 reference and timed ART-9 run agree)\n", o.Checksum)
		fmt.Printf("RV32 static       %d instructions (%d bits)\n", o.RVInsts, o.RVBits)
		fmt.Printf("ART-9 static      %d instructions (%d trits)\n", o.ARTInsts, o.ARTTrits)
		fmt.Printf("ARMv6-M estimate  %d bits\n", o.ARMBits)
		fmt.Printf("redundancy removed %d instructions\n", o.Removed)
		fmt.Printf("ART-9 cycles      %d (retired %d, load stalls %d, squashes %d)\n",
			o.ART9Cycles, o.ARTRetired, o.ARTStallsLoad, o.ARTStallsBranch)
		fmt.Printf("VexRiscv cycles   %d\n", o.VexCycles)
		fmt.Printf("PicoRV32 cycles   %d\n", o.PicoCycles)
		if *diag {
			for _, d := range o.Diagnostics {
				fmt.Println("diag:", d)
			}
		}
	case *table == "":
		s, err := bench.AllTables()
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
	default:
		all, err := bench.RunAll()
		if err != nil {
			fatal(err)
		}
		var s string
		switch *table {
		case "fig5":
			_, s = bench.Fig5(all)
		case "2":
			_, s = bench.Table2(all["dhrystone"])
		case "3":
			_, s = bench.Table3(all)
		case "4":
			_, s = bench.Table4(all["dhrystone"])
		case "5":
			_, s = bench.Table5(all["dhrystone"])
		default:
			fatal(fmt.Errorf("unknown table %q", *table))
		}
		fmt.Print(s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-bench:", err)
	os.Exit(1)
}
