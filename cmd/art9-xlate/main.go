// Command art9-xlate runs the software-level compiling framework of the
// paper (§III-A): RV32 assembly in, ART-9 ternary assembly out, through
// instruction mapping, operand conversion / register renaming, and
// redundancy checking.
//
// Usage:
//
//	art9-xlate [-o out.t9s] [-diag] [-stats] [-no-peephole] [-no-inline-mul] prog.s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/xlate"
)

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	diag := flag.Bool("diag", false, "print translation diagnostics")
	stats := flag.Bool("stats", false, "print size statistics")
	noPeep := flag.Bool("no-peephole", false, "disable redundancy checking")
	noMul := flag.Bool("no-inline-mul", false, "call the runtime multiplier instead of inlining")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: art9-xlate [-o out.t9s] [-diag] [-stats] [-no-peephole] [-no-inline-mul] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f := &core.SoftwareFramework{Options: xlate.Options{
		NoPeephole:  *noPeep,
		NoInlineMul: *noMul,
	}}
	res, err := f.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(res.Ternary.Asm)
	} else if err := os.WriteFile(*out, []byte(res.Ternary.Asm), 0o644); err != nil {
		fatal(err)
	}
	if *diag {
		for _, d := range res.Ternary.Diagnostics {
			fmt.Fprintln(os.Stderr, "diag:", d)
		}
	}
	if *stats {
		rvBits := res.Binary.TextBits()
		trits := res.Program.TextCells()
		fmt.Fprintf(os.Stderr, "RV32 instructions   %d (%d bits)\n",
			len(res.Binary.Insts), rvBits)
		fmt.Fprintf(os.Stderr, "ART-9 instructions  %d (%d trits)\n",
			len(res.Program.Text), trits)
		fmt.Fprintf(os.Stderr, "cell reduction      %.0f%%\n",
			100*(1-float64(trits)/float64(rvBits)))
		fmt.Fprintf(os.Stderr, "redundancy removed  %d instructions\n",
			res.Ternary.Removed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-xlate:", err)
	os.Exit(1)
}
