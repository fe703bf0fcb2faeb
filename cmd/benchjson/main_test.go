package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: umi
cpu: Example CPU @ 2.10GHz
BenchmarkCacheAccess    	59188197	        20.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheAccess    	66214640	        22.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeProfile 	    3380	     69448 ns/op	        16.95 ns/ref	      21 B/op	       0 allocs/op
PASS
ok  	umi	7.918s
`

func TestParseAggregatesAndSorts(t *testing.T) {
	f, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != schemaName {
		t.Errorf("schema = %q", f.Schema)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	if f.Benchmarks[0].Name != "BenchmarkAnalyzeProfile" || f.Benchmarks[1].Name != "BenchmarkCacheAccess" {
		t.Errorf("not sorted by name: %v, %v", f.Benchmarks[0].Name, f.Benchmarks[1].Name)
	}
	ca := f.Benchmarks[1]
	if ca.Runs != 2 || ca.Iterations != 59188197+66214640 {
		t.Errorf("CacheAccess runs=%d iters=%d", ca.Runs, ca.Iterations)
	}
	if got := ca.Metrics["ns/op"]; got != 21.0 {
		t.Errorf("mean ns/op = %v, want 21.0", got)
	}
	ap := f.Benchmarks[0]
	if unit, v, ok := headline(ap); !ok || unit != "ns/ref" || v != 16.95 {
		t.Errorf("headline = %v %v %v, want ns/ref 16.95", unit, v, ok)
	}
	if unit, _, _ := headline(ca); unit != "ns/op" {
		t.Errorf("headline without ns/ref = %v, want ns/op", unit)
	}
}

// A benchmark's headline is its most specific cost: per reference, then
// per guest instruction (BenchmarkPipelineEndToEnd), then per op.
func TestHeadlinePrefersPerUnitCost(t *testing.T) {
	cases := []struct {
		metrics map[string]float64
		unit    string
	}{
		{map[string]float64{"ns/op": 9e6, "ns/instr": 15.2, "ns/ref": 17}, "ns/ref"},
		{map[string]float64{"ns/op": 9e6, "ns/instr": 15.2, "B/op": 512}, "ns/instr"},
		{map[string]float64{"ns/op": 21, "B/op": 0}, "ns/op"},
		{map[string]float64{"B/op": 0}, ""},
	}
	for _, c := range cases {
		unit, v, ok := headline(Result{Metrics: c.metrics})
		if unit != c.unit || ok != (c.unit != "") || ok && v != c.metrics[c.unit] {
			t.Errorf("headline(%v) = %q %v %v, want %q", c.metrics, unit, v, ok, c.unit)
		}
	}
}

func TestCompareWarnsPastThreshold(t *testing.T) {
	baseline, _ := parse(strings.NewReader(
		"BenchmarkCacheAccess-8 100 20.0 ns/op\nBenchmarkGone-8 100 5.0 ns/op\n"))
	cur, _ := parse(strings.NewReader(
		"BenchmarkCacheAccess-8 100 30.0 ns/op\nBenchmarkNew-8 100 1.0 ns/op\n"))
	var sb strings.Builder
	if n := compare(&sb, baseline, cur, 15); n != 1 {
		t.Errorf("regressions = %d, want 1 (50%% past a 15%% threshold)", n)
	}
	out := sb.String()
	for _, want := range []string{"::warning::BenchmarkCacheAccess", "+50.0%",
		"BenchmarkNew", "no baseline", "BenchmarkGone", "baseline only"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if n := compare(&sb, baseline, cur, 60); n != 0 {
		t.Errorf("regressions = %d at a 60%% threshold, want 0", n)
	}
}

func TestRunCaptureAndCompare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_umi.json")
	var out, errb strings.Builder
	if code := run([]string{"-out", path}, strings.NewReader(sampleOutput), &out, &errb); code != 0 {
		t.Fatalf("capture exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("emitted JSON invalid: %v", err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("round-trip lost benchmarks: %d", len(f.Benchmarks))
	}

	// Compare the same output against itself: zero regressions, exit 0.
	out.Reset()
	if code := run([]string{"-compare", path}, strings.NewReader(sampleOutput), &out, &errb); code != 0 {
		t.Fatalf("compare exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 benchmark(s) past") {
		t.Errorf("self-compare should report no regressions:\n%s", out.String())
	}

	// Empty input is an error.
	if code := run(nil, strings.NewReader("PASS\n"), &out, &errb); code != 1 {
		t.Errorf("empty input exit = %d, want 1", code)
	}
}

// TestRunAppendAndTrend drives the history mode end to end: three appended
// runs with a slowly drifting headline metric, -history-max trimming, and
// a trend report that flags cumulative drift the single-step compare
// would pass.
func TestRunAppendAndTrend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_history.json")
	bench := func(ns string) string {
		return "BenchmarkCacheAccess-8 100 " + ns + " ns/op\n"
	}
	var out, errb strings.Builder

	// First append starts from a missing file.
	if code := run([]string{"-append", path}, strings.NewReader(bench("20.0")), &out, &errb); code != 0 {
		t.Fatalf("append 1 exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "appended run 1 to") {
		t.Errorf("append note missing:\n%s", out.String())
	}

	// Two more runs, each +10% — under a 15% single-step threshold but
	// +21% cumulative.
	for _, ns := range []string{"22.0", "24.2"} {
		out.Reset()
		if code := run([]string{"-append", path, "-trend", path}, strings.NewReader(bench(ns)), &out, &errb); code != 0 {
			t.Fatalf("append exit %d: %s", code, errb.String())
		}
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history holds %d runs, want 3", len(hist))
	}
	if !strings.Contains(out.String(), "::warning::BenchmarkCacheAccess drifted 21.0%") {
		t.Errorf("cumulative drift not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 benchmark(s) past the 15% drift threshold") {
		t.Errorf("trend summary missing:\n%s", out.String())
	}

	// Pure trend mode reads only the file — no stdin run required.
	out.Reset()
	if code := run([]string{"-trend", path}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("pure trend exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "trend across 3 runs") {
		t.Errorf("pure trend report missing:\n%s", out.String())
	}

	// -history-max trims to the most recent runs.
	out.Reset()
	if code := run([]string{"-append", path, "-history-max", "2"}, strings.NewReader(bench("24.2")), &out, &errb); code != 0 {
		t.Fatalf("trimmed append exit %d: %s", code, errb.String())
	}
	hist, err = loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Errorf("trimmed history holds %d runs, want 2", len(hist))
	}

	// A corrupt history is an error, not silent data loss.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"schema":"wrong/v0"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-append", bad}, strings.NewReader(bench("20.0")), &out, &errb); code != 1 {
		t.Errorf("corrupt history exit = %d, want 1", code)
	}

	// Per-metric series: a steady headline must not mask B/op drift or
	// allocs/op leaving zero; both get their own warning lines, and the
	// benchmark counts once in the summary.
	multi := filepath.Join(dir, "multi.json")
	oldRun := "BenchmarkAnalyzeProfile-8 100 70000 ns/op 17.00 ns/ref 100 B/op 0 allocs/op\n"
	newRun := "BenchmarkAnalyzeProfile-8 100 70000 ns/op 17.00 ns/ref 150 B/op 2 allocs/op\n"
	for _, r := range []string{oldRun, newRun} {
		out.Reset()
		if code := run([]string{"-append", multi}, strings.NewReader(r), &out, &errb); code != 0 {
			t.Fatalf("multi-metric append exit %d: %s", code, errb.String())
		}
	}
	out.Reset()
	if code := run([]string{"-trend", multi}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("multi-metric trend exit %d: %s", code, errb.String())
	}
	for _, want := range []string{
		"::warning::BenchmarkAnalyzeProfile B/op drifted 50.0% across 2 runs",
		"::warning::BenchmarkAnalyzeProfile allocs/op grew from zero across 2 runs (0 -> 2.00)",
		"1 benchmark(s) past the 15% drift threshold",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("per-metric trend output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "::warning::BenchmarkAnalyzeProfile drifted") {
		t.Errorf("steady headline must not warn:\n%s", out.String())
	}

	// Short history: trend declines politely.
	single := filepath.Join(dir, "single.json")
	out.Reset()
	if code := run([]string{"-append", single}, strings.NewReader(bench("20.0")), &out, &errb); code != 0 {
		t.Fatal("single append failed")
	}
	out.Reset()
	if code := run([]string{"-trend", single}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatal("single trend failed")
	}
	if !strings.Contains(out.String(), "need 2 for a trend") {
		t.Errorf("short-history note missing:\n%s", out.String())
	}
}
