// Command umibench regenerates the tables and figures of the UMI paper's
// evaluation (CGO 2007) from the reproduction's simulated stack.
//
// Usage:
//
//	umibench [-bench name,name,...] [-parallel N] [-json] <experiment> [<experiment> ...]
//	umibench all
//
// The experiments table below lists every experiment; `umibench -h`
// prints it. With -bench, the applicable experiments run on the named
// workloads only (default: the paper's 32 CPU2000+Olden benchmarks).
// "umibench list" prints the workload names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"umi/internal/harness"
	"umi/internal/workloads"
)

func main() {
	benchFlag := flag.String("bench", "", "comma-separated workload subset (default: the paper's 32)")
	streamFlag := flag.String("stream", "",
		"umi-profile/v1 stream file for replay-geometry (default: record one in memory from the first -bench workload)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	parallel := flag.Int("parallel", 1,
		"experiment cells (workload x configuration) to run concurrently; output is identical at any level")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	harness.SetParallelism(*parallel)
	var names []string
	if *benchFlag != "" {
		names = strings.Split(*benchFlag, ",")
	}
	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = nil
		for _, e := range experiments {
			if e.all {
				args = append(args, e.name)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, exp := range args {
		v, text, err := run(exp, names, *streamFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "umibench: %s: %v\n", exp, err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := enc.Encode(map[string]any{"experiment": exp, "result": v}); err != nil {
				fmt.Fprintf(os.Stderr, "umibench: %s: %v\n", exp, err)
				os.Exit(1)
			}
		} else if text != "" {
			fmt.Println(text)
		}
	}
}

// experiment is one row of the experiments table.
type experiment struct {
	name string
	// help is the usage text: one line, or more separated by newlines.
	help string
	// all says whether `umibench all` runs the experiment.
	all bool
	// run is the driver: it returns the -json value and the rendered text.
	run func(names []string, stream string) (any, string, error)
}

// experiments is the one table of umibench's experiments, in the order
// `umibench all` runs them.
var experiments = []experiment{
	{"table1", "HW counter sampling overhead vs UMI (Table 1)", true, fixed(harness.Table1, str)},
	{"table2", "qualitative profiling tradeoffs (Table 2)", true,
		func([]string, string) (any, string, error) { t := harness.Table2(); return t, t, nil }},
	{"table3", "profiling statistics, no sampling (Table 3)", true, drive(harness.Table3, str)},
	{"table4", "correlation coefficients, CPU2000+Olden (Table 4)", true, drive(harness.Table4, str)},
	{"table5", "correlation coefficients, CPU2006 subset (Table 5)", true, fixed(harness.Table5, str)},
	{"table6", "delinquent load prediction quality (Table 6)", true, drive(harness.Table6, str)},
	{"fig2", "runtime overhead (Figure 2)", true, drive(harness.Fig2, str)},
	{"fig3", "SW prefetch running time, P4 no HW prefetch (Figure 3)", true, drive(harness.Fig3, str)},
	{"fig4", "SW prefetch running time, AMD K7 (Figure 4)", true, drive(harness.Fig4, str)},
	{"fig5", "SW vs HW vs combined prefetch time, P4 (Figure 5)", true, drive(harness.Fig5, str)},
	{"fig6", "L2 misses under prefetching (Figure 6)", true, drive(harness.Fig6, str)},
	{"sens-threshold", "frequency-threshold sensitivity (Section 7.2)", true,
		drive(harness.SensitivityThreshold, harness.RenderSens)},
	{"sens-profile", "address-profile-length sensitivity (Section 7.2)", true,
		drive(harness.SensitivityProfileLen, harness.RenderSens)},
	{"sens-geometry", "geometry vs profile-length sensitivity (Section 5)", true,
		drive(harness.SensitivityGeometry, harness.RenderGeometry)},
	{"linuxapps", "Linux application miss ratios (Section 6.3)", true, fixed(harness.LinuxApps, str)},
	{"counters-vs-umi", "PMU sampling quality per overhead vs UMI (Section 1.2)", true,
		drive(harness.CountersVsUMIRun, harness.RenderCvU)},
	{"self-overhead", "modelled UMI cost vs the runtime's own metrics", true,
		drive(harness.SelfOverhead, withLive)},
	{"overhead-frontier", "sampling-rate x adaptation sweep: fill-cost reduction\n" +
		"vs delinquent-set recall and miss-ratio correlation\n" +
		"(default: 181.mcf, 197.parser, em3d, 470.lbm)", true, drive(harness.OverheadFrontier, str)},
	{"timeline", "delinquent-set evolution per analyzer invocation", true, drive(harness.Timeline, str)},
	{"phases", "windowed miss-ratio and delinquent-set churn history", true, drive(harness.Phases, str)},
	{"wire-compress", "umi-profile/v2 compression ratio and replay equivalence\n" +
		"per workload (default: em3d, 181.mcf)", true, drive(harness.WireCompress, withLive)},
	{"replay-geometry", "geometry sweep replaying one umi-profile/v1 stream\n" +
		"(-stream file, or records the first -bench workload)", false, replayGeometry},
	{"list", "print workload names", false, list},
}

// drive adapts a harness driver and its rendering to the table.
func drive[T any](f func([]string) (T, error), render func(T) string) func([]string, string) (any, string, error) {
	return func(names []string, _ string) (any, string, error) {
		r, err := f(names)
		if err != nil {
			return nil, "", err
		}
		return r, render(r), nil
	}
}

// fixed adapts a driver that runs a fixed workload set, ignoring -bench.
func fixed[T any](f func() (T, error), render func(T) string) func([]string, string) (any, string, error) {
	return drive(func([]string) (T, error) { return f() }, render)
}

func str[T fmt.Stringer](r T) string { return r.String() }

// withLive renders the deterministic view, then the measured wall view.
func withLive[T interface {
	fmt.Stringer
	LiveString() string
}](r T) string {
	return r.String() + r.LiveString()
}

func replayGeometry(names []string, stream string) (any, string, error) {
	var (
		r   *harness.ReplayGeometryResult
		err error
	)
	if stream != "" {
		data, rerr := os.ReadFile(stream)
		if rerr != nil {
			return nil, "", rerr
		}
		r, err = harness.ReplayGeometry(data)
	} else {
		name := "181.mcf"
		if len(names) > 0 {
			name = names[0]
		}
		r, err = harness.ReplayGeometryWorkload(name)
	}
	if err != nil {
		return nil, "", err
	}
	return r, harness.RenderReplayGeometry(r), nil
}

func list([]string, string) (any, string, error) {
	var sb strings.Builder
	for _, w := range workloads.All() {
		fmt.Fprintf(&sb, "%-16s %-9s %s\n", w.Name, w.Suite, w.Class)
	}
	return workloads.Names(), sb.String(), nil
}

func usage() {
	var sb strings.Builder
	sb.WriteString("usage: umibench [-bench names] [-parallel N] [-json] <experiment>...\n\nexperiments:\n")
	var skipped []string
	for _, e := range experiments {
		lines := strings.Split(e.help, "\n")
		if len(e.name) > 15 {
			fmt.Fprintf(&sb, "  %s\n", e.name)
		} else {
			fmt.Fprintf(&sb, "  %-15s %s\n", e.name, lines[0])
			lines = lines[1:]
		}
		for _, l := range lines {
			fmt.Fprintf(&sb, "%18s%s\n", "", l)
		}
		if !e.all {
			skipped = append(skipped, e.name)
		}
	}
	fmt.Fprintf(&sb, "  %-15s everything above but %s\n", "all", strings.Join(skipped, " and "))
	fmt.Fprint(os.Stderr, sb.String())
}

func run(exp string, names []string, streamPath string) (any, string, error) {
	for _, e := range experiments {
		if e.name == exp {
			return e.run(names, streamPath)
		}
	}
	return nil, "", fmt.Errorf("unknown experiment %q", exp)
}
