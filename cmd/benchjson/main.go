// Command benchjson converts `go test -bench` output into the
// machine-readable BENCH_umi.json perf trajectory, and diffs a fresh run
// against a committed baseline.
//
// Capture mode (the `make bench-json` target):
//
//	go test -run '^$' -bench ... -benchmem -count 3 . | benchjson -out BENCH_umi.json
//
// Compare mode (the CI regression step; warn-only, since CI machines vary):
//
//	go test -run '^$' -bench ... -benchmem . | benchjson -compare BENCH_umi.json -warn-pct 15
//
// History mode (the CI trend step): -append accumulates runs into a
// history file — a JSON list of umi-bench/v1 runs, oldest first — and
// -trend diffs the oldest retained run against the newest — the headline
// metric plus a series for every other reported metric (B/op, allocs/op) —
// catching the slow multi-PR drift the single-step compare misses:
//
//	go test -run '^$' -bench ... -benchmem . | benchjson -append BENCH_history.json -trend BENCH_history.json
//
// Repeated -count runs of one benchmark are averaged into a single entry,
// and entries are sorted by name, so the JSON is stable for a fixed set of
// measurements.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Name       string             `json:"name"`
	Runs       int                `json:"runs"`
	Iterations int64              `json:"iterations"` // total across runs
	Metrics    map[string]float64 `json:"metrics"`    // unit -> mean value
}

// File is the BENCH_umi.json schema: a flat, sorted list of benchmark
// results. Environment identification (Go version, CPU) stays out so the
// committed baseline does not churn with toolchain bumps; the `go test`
// header lines carry that context in CI logs.
type File struct {
	Schema     string   `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

const schemaName = "umi-bench/v1"

// benchLine matches one result line: name (with optional -GOMAXPROCS
// suffix), iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// parse reads `go test -bench` output and aggregates per-benchmark means.
func parse(r io.Reader) (*File, error) {
	type acc struct {
		runs  int
		iters int64
		sums  map[string]float64
		n     map[string]int
	}
	byName := map[string]*acc{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		a := byName[m[1]]
		if a == nil {
			a = &acc{sums: map[string]float64{}, n: map[string]int{}}
			byName[m[1]] = a
		}
		a.runs++
		a.iters += iters
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q for %q", m[1], fields[i], fields[i+1])
			}
			a.sums[fields[i+1]] += v
			a.n[fields[i+1]]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f := &File{Schema: schemaName}
	for name, a := range byName {
		res := Result{Name: name, Runs: a.runs, Iterations: a.iters,
			Metrics: make(map[string]float64, len(a.sums))}
		for unit, sum := range a.sums {
			res.Metrics[unit] = sum / float64(a.n[unit])
		}
		f.Benchmarks = append(f.Benchmarks, res)
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
	return f, nil
}

// headlineUnits are the metrics a regression check compares, most
// specific first: cost per simulated reference, then per guest
// instruction, then per-op wall time.
var headlineUnits = []string{"ns/ref", "ns/instr", "ns/op"}

// headline picks the first of headlineUnits the benchmark reports.
func headline(r Result) (string, float64, bool) {
	for _, unit := range headlineUnits {
		if v, ok := r.Metrics[unit]; ok {
			return unit, v, true
		}
	}
	return "", 0, false
}

// compare diffs cur against the baseline and writes a report. It returns
// the number of benchmarks whose headline metric regressed past warnPct.
func compare(w io.Writer, baseline, cur *File, warnPct float64) int {
	base := map[string]Result{}
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	regressions := 0
	for _, r := range cur.Benchmarks {
		unit, now, ok := headline(r)
		if !ok {
			continue
		}
		b, inBase := base[r.Name]
		if !inBase {
			fmt.Fprintf(w, "%-28s %10.2f %s (no baseline)\n", r.Name, now, unit)
			continue
		}
		old, okBase := b.Metrics[unit]
		if !okBase || old == 0 {
			fmt.Fprintf(w, "%-28s %10.2f %s (baseline lacks %s)\n", r.Name, now, unit, unit)
			continue
		}
		pct := 100 * (now - old) / old
		fmt.Fprintf(w, "%-28s %10.2f -> %10.2f %s  %+6.1f%%\n", r.Name, old, now, unit, pct)
		if pct > warnPct {
			regressions++
			// GitHub Actions annotation; inert noise elsewhere.
			fmt.Fprintf(w, "::warning::%s regressed %.1f%% (%s %.2f -> %.2f, threshold %.0f%%)\n",
				r.Name, pct, unit, old, now, warnPct)
		}
	}
	for name := range base {
		found := false
		for _, r := range cur.Benchmarks {
			if r.Name == name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%-28s missing from this run (baseline only)\n", name)
		}
	}
	return regressions
}

// loadHistory reads a history file: a JSON list of schema-stamped runs,
// oldest first. A missing file is an empty history, not an error (the
// first CI run after a cache miss starts from scratch).
func loadHistory(path string) ([]File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var hist []File
	if err := json.Unmarshal(data, &hist); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for i, f := range hist {
		if f.Schema != schemaName {
			return nil, fmt.Errorf("%s: run %d has schema %q, want %q", path, i, f.Schema, schemaName)
		}
	}
	return hist, nil
}

// trend diffs the oldest retained run against the newest and writes a
// report: the headline metric first, then a series line for every other
// metric both runs report (B/op, allocs/op, ns/op under an ns/ref
// headline), so allocation creep is caught alongside time drift. It
// returns the number of benchmarks with any metric drifted past warnPct
// cumulatively — the regression a sequence of under-threshold single-step
// changes accumulates.
func trend(w io.Writer, hist []File, warnPct float64) int {
	if len(hist) < 2 {
		fmt.Fprintf(w, "history holds %d run(s); need 2 for a trend\n", len(hist))
		return 0
	}
	oldest, newest := hist[0], hist[len(hist)-1]
	base := map[string]Result{}
	for _, r := range oldest.Benchmarks {
		base[r.Name] = r
	}
	drifts := 0
	fmt.Fprintf(w, "trend across %d runs (oldest retained -> newest):\n", len(hist))
	for _, r := range newest.Benchmarks {
		unit, now, ok := headline(r)
		if !ok {
			continue
		}
		b, inBase := base[r.Name]
		if !inBase {
			fmt.Fprintf(w, "%-28s %10.2f %s (not in oldest run)\n", r.Name, now, unit)
			continue
		}
		old, okBase := b.Metrics[unit]
		if !okBase || old == 0 {
			fmt.Fprintf(w, "%-28s %10.2f %s (oldest run lacks %s)\n", r.Name, now, unit, unit)
			continue
		}
		drifted := false
		pct := 100 * (now - old) / old
		fmt.Fprintf(w, "%-28s %10.2f -> %10.2f %s  %+6.1f%%\n", r.Name, old, now, unit, pct)
		if pct > warnPct {
			drifted = true
			fmt.Fprintf(w, "::warning::%s drifted %.1f%% across %d runs (%s %.2f -> %.2f, threshold %.0f%%)\n",
				r.Name, pct, len(hist), unit, old, now, warnPct)
		}
		for _, u := range sortedUnits(r.Metrics) {
			if u == unit {
				continue
			}
			nv := r.Metrics[u]
			ov, inOld := b.Metrics[u]
			if !inOld {
				continue
			}
			switch {
			case ov == 0 && nv == 0:
				fmt.Fprintf(w, "  %-26s %10.2f -> %10.2f %s\n", "", ov, nv, u)
			case ov == 0:
				// A zero baseline has no percentage; any growth is drift
				// (allocs/op leaving zero is exactly the regression the
				// zero-alloc tests guard).
				drifted = true
				fmt.Fprintf(w, "  %-26s %10.2f -> %10.2f %s\n", "", ov, nv, u)
				fmt.Fprintf(w, "::warning::%s %s grew from zero across %d runs (0 -> %.2f)\n",
					r.Name, u, len(hist), nv)
			default:
				mpct := 100 * (nv - ov) / ov
				fmt.Fprintf(w, "  %-26s %10.2f -> %10.2f %s  %+6.1f%%\n", "", ov, nv, u, mpct)
				if mpct > warnPct {
					drifted = true
					fmt.Fprintf(w, "::warning::%s %s drifted %.1f%% across %d runs (%.2f -> %.2f, threshold %.0f%%)\n",
						r.Name, u, mpct, len(hist), ov, nv, warnPct)
				}
			}
		}
		if drifted {
			drifts++
		}
	}
	return drifts
}

// sortedUnits returns the metric units in stable order, so series lines
// and warnings do not reshuffle between runs.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

// run is the testable entry point: parses flags against args, reads bench
// output from stdin, and writes to stdout/stderr. Returns the process exit
// code (compare mode is warn-only: regressions annotate, they do not fail).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write aggregated benchmark JSON to this file")
	baselinePath := fs.String("compare", "", "diff stdin's run against this baseline JSON")
	warnPct := fs.Float64("warn-pct", 15, "warn when a headline metric regresses past this percentage")
	appendPath := fs.String("append", "", "append this run to a history file (JSON list of runs, oldest first)")
	trendPath := fs.String("trend", "", "report cumulative oldest-to-newest drift across this history file")
	historyMax := fs.Int("history-max", 50, "most-recent runs to retain when appending (0: unbounded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trendPath != "" && *appendPath == "" {
		// Pure trend mode reads only the history file, no stdin run.
		hist, err := loadHistory(*trendPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		n := trend(stdout, hist, *warnPct)
		fmt.Fprintf(stdout, "%d benchmark(s) past the %.0f%% drift threshold\n", n, *warnPct)
		return 0
	}
	cur, err := parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark result lines on stdin")
		return 1
	}
	if *appendPath != "" {
		hist, err := loadHistory(*appendPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		hist = append(hist, *cur)
		if *historyMax > 0 && len(hist) > *historyMax {
			hist = hist[len(hist)-*historyMax:]
		}
		data, err := json.MarshalIndent(hist, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*appendPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "appended run %d to %s (%d benchmark(s))\n",
			len(hist), *appendPath, len(cur.Benchmarks))
		if *trendPath != "" {
			n := trend(stdout, hist, *warnPct)
			fmt.Fprintf(stdout, "%d benchmark(s) past the %.0f%% drift threshold\n", n, *warnPct)
		}
		return 0
	}
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		var baseline File
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", *baselinePath, err)
			return 1
		}
		n := compare(stdout, &baseline, cur, *warnPct)
		fmt.Fprintf(stdout, "%d benchmark(s) past the %.0f%% warn threshold\n", n, *warnPct)
		return 0
	}
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d benchmark(s) to %s\n", len(cur.Benchmarks), *out)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
