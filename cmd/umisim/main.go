// Command umisim is the reproduction's standalone Cachegrind: it executes
// a workload natively while driving every memory reference through a full
// trace-driven two-level cache simulation, then prints whole-program and
// per-instruction miss statistics and the 90%-coverage delinquent load
// set. It is the offline, high-overhead baseline UMI is compared against.
//
// Usage:
//
//	umisim [-machine p4|k7] [-top n] [-coverage 0.9] <workload>
//	umisim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"umi/internal/cachegrind"
	"umi/internal/program"
	"umi/internal/trace"
	"umi/internal/vm"
	"umi/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's guts with the process edges (args, streams, exit status)
// injected, so the end-to-end tests can drive the real CLI path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("umisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "p4", "hardware model: p4 or k7")
	top := fs.Int("top", 15, "top missing instructions to print")
	coverage := fs.Float64("coverage", 0.90, "delinquent set miss coverage")
	annotate := fs.Bool("annotate", false, "print the annotated disassembly (cg_annotate style)")
	record := fs.String("record", "", "also write the address trace to this file")
	replay := fs.String("replay", "", "simulate from a recorded trace file instead of running a workload")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *machine != "p4" && *machine != "k7" {
		fmt.Fprintf(stderr, "umisim: -machine must be p4 or k7, got %q\n", *machine)
		return 2
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-16s %-9s %s\n", w.Name, w.Suite, w.Class)
		}
		return 0
	}
	var sim *cachegrind.Simulator
	if *machine == "k7" {
		sim = cachegrind.NewK7()
	} else {
		sim = cachegrind.NewP4()
	}

	var title string
	var prog *program.Program
	switch {
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintf(stderr, "umisim: %v\n", err)
			return 1
		}
		defer f.Close()
		rd, err := trace.NewReader(f)
		if err != nil {
			fmt.Fprintf(stderr, "umisim: %v\n", err)
			return 1
		}
		n, err := rd.Replay(sim.Ref)
		if err != nil {
			fmt.Fprintf(stderr, "umisim: replay after %d records: %v\n", n, err)
			return 1
		}
		title = fmt.Sprintf("replayed trace %s (%d records)", *replay, n)
	case fs.NArg() == 1:
		w, ok := workloads.ByName(fs.Arg(0))
		if !ok {
			fmt.Fprintf(stderr, "umisim: unknown workload %q\n", fs.Arg(0))
			return 1
		}
		prog = w.Program()
		m := vm.New(prog, nil)
		hooks := []vm.RefHook{sim.Ref}
		var tw *trace.Writer
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintf(stderr, "umisim: %v\n", err)
				return 1
			}
			defer f.Close()
			tw, err = trace.NewWriter(f)
			if err != nil {
				fmt.Fprintf(stderr, "umisim: %v\n", err)
				return 1
			}
			hooks = append(hooks, tw.Hook())
		}
		m.RefHook = func(pc, addr uint64, size uint8, write bool) {
			for _, h := range hooks {
				h(pc, addr, size, write)
			}
		}
		if err := m.Run(200_000_000); err != nil {
			fmt.Fprintf(stderr, "umisim: %v\n", err)
			return 1
		}
		if tw != nil {
			if err := tw.Flush(); err != nil {
				fmt.Fprintf(stderr, "umisim: trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "recorded %d references to %s\n", tw.Count(), *record)
		}
		title = fmt.Sprintf("%s (%s)", w.Name, w.Suite)
	default:
		fmt.Fprintln(stderr, "usage: umisim [flags] <workload> | umisim -replay trace.umi   (umisim -list to enumerate)")
		return 2
	}

	fmt.Fprintf(stdout, "workload: %s\n", title)
	fmt.Fprintf(stdout, "refs:     %d dynamic memory references, %d static instructions\n",
		sim.Refs, len(sim.Stats()))
	fmt.Fprintf(stdout, "L1:       %d accesses, %d misses (%.3f%%)\n",
		sim.L1Accesses, sim.L1Misses, pct(sim.L1Misses, sim.L1Accesses))
	fmt.Fprintf(stdout, "L2:       %d accesses, %d misses (%.3f%%)\n",
		sim.L2Accesses, sim.L2Misses, pct(sim.L2Misses, sim.L2Accesses))

	stats := make([]*cachegrind.PCStat, 0, len(sim.Stats()))
	for _, st := range sim.Stats() {
		stats = append(stats, st)
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].L2Misses != stats[j].L2Misses {
			return stats[i].L2Misses > stats[j].L2Misses
		}
		return stats[i].PC < stats[j].PC
	})
	fmt.Fprintf(stdout, "\ntop %d instructions by L2 misses:\n", *top)
	n := *top
	if n > len(stats) {
		n = len(stats)
	}
	for _, st := range stats[:n] {
		kind := "load"
		if !st.IsLoad {
			kind = "store"
		}
		fmt.Fprintf(stdout, "  %#08x  %-5s L2 misses=%-9d accesses=%-9d ratio=%.4f\n",
			st.PC, kind, st.L2Misses, st.Accesses, st.MissRatio())
	}

	set := sim.DelinquentSet(*coverage)
	fmt.Fprintf(stdout, "\ndelinquent load set C (%.0f%% coverage): %d loads, actual coverage %.2f%%\n",
		100**coverage, len(set), 100*sim.MissCoverage(set))

	if *annotate && prog != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sim.Annotate(prog, false))
	}
	return 0
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
