// Command umiasm assembles, disassembles, and executes guest assembly.
//
//	umiasm run prog.s            execute natively, print final registers
//	umiasm umi prog.s            execute under UMI, print the profile
//	umiasm fmt prog.s            parse and reprint (canonical form)
//	umiasm dump <workload>       print a bundled workload as assembly
//
// The syntax is documented in internal/asm.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"umi/internal/asm"
	"umi/internal/harness"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/vm"
	"umi/internal/workloads"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: umiasm run|umi|fmt <file.s>  |  umiasm dump <workload>")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, arg := flag.Arg(0), flag.Arg(1)
	if err := dispatch(cmd, arg); err != nil {
		fmt.Fprintf(os.Stderr, "umiasm: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(cmd, arg string) error {
	switch cmd {
	case "dump":
		w, ok := workloads.ByName(arg)
		if !ok {
			return fmt.Errorf("unknown workload %q", arg)
		}
		fmt.Print(asm.Format(w.Program()))
		return nil
	case "run", "umi", "fmt":
		src, err := os.ReadFile(arg)
		if err != nil {
			return err
		}
		p, err := asm.Parse(arg, string(src))
		if err != nil {
			return err
		}
		switch cmd {
		case "fmt":
			fmt.Print(asm.Format(p))
			return nil
		case "run":
			return runNative(p)
		default:
			return runUMI(p)
		}
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func runNative(p *program.Program) error {
	h := harness.P4.Hierarchy(false)
	m := vm.New(p, h)
	if err := m.Run(harness.MaxInstrs); err != nil {
		return err
	}
	fmt.Printf("halted after %d instructions, %d cycles\n", m.Instrs, m.Cycles)
	fmt.Printf("L2: %v\n", &h.L2Stats)
	for r := isa.R0; r < isa.NumRegs; r++ {
		if m.Regs[r] != 0 && r != isa.SP && r != isa.BP {
			fmt.Printf("  %-3v = %d (%#x)\n", r, m.Regs[r], m.Regs[r])
		}
	}
	return nil
}

func runUMI(p *program.Program) error {
	run, err := harness.RunProgram(p, harness.P4, false, harness.UMIParams(harness.P4), harness.MaxInstrs, nil)
	if err != nil {
		return err
	}
	rep := run.Report
	fmt.Printf("%v\n", rep)
	fmt.Printf("hardware L2 miss ratio %.4f; UMI simulated %.4f\n",
		run.H.L2Stats.MissRatio(), rep.SimMissRatio)
	var pcs []uint64
	for pc := range rep.Delinquent {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		line := fmt.Sprintf("delinquent load at %#x", pc)
		if i, ok := p.IndexOf(pc); ok {
			line += fmt.Sprintf(": %v", p.Instrs[i])
		}
		if si, ok := rep.Strides[pc]; ok {
			line += fmt.Sprintf(" (stride %+d)", si.Stride)
		}
		fmt.Println(line)
	}
	return nil
}
