package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// self-tests hold the program to.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func specsOf(defs []metricDef) []metricSpec {
	out := make([]metricSpec, len(defs))
	for i, d := range defs {
		out[i] = metricSpec{d.name, d.unit}
	}
	return out
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if got, want := b.EndToEnd, specsOf(endToEnd); !equalSpecs(got, want) {
		t.Errorf("end_to_end %v, program emits %v", got, want)
	}
	if got, want := b.PerLayer, specsOf(perLayer); !equalSpecs(got, want) {
		t.Errorf("per_layer %v, program emits %v", got, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for name := range runners {
		want = append(want, name)
	}
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tinySize shrinks a run to seconds of work.
func tinySize(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.2, trace: trace, spanDir: t.TempDir(),
		setups: 2, maxInputs: 2}
}

type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	lines map[string]string // "metric" lines: name → "value unit"
	sha   string
}

func execTiny(t *testing.T, cfg config) runOutput {
	t.Helper()
	var out bytes.Buffer
	if err := execute(cfg, &out); err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	r.lines = map[string]string{}
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 4 && f[0] == "metric":
			r.lines[f[1]] = f[2] + " " + f[3]
		case len(f) > 1 && f[0] == "outputs":
			r.sha = f[1]
		}
	}
	return r
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// every metric BENCHMARK.json lists must appear with its unit, every
// output must check, and the traced run's outputs must be the untraced
// run's.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := execTiny(t, tinySize(t, w.Name, false))
			traced := execTiny(t, tinySize(t, w.Name, true))
			for _, c := range []struct {
				r     runOutput
				specs []metricSpec
			}{{plain, b.EndToEnd}, {traced, b.PerLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", c.r.Correct, c.r.Attempted, c.r.Failed)
				}
				if len(c.r.Metrics) != len(c.specs) {
					t.Errorf("result carries %d metrics, BENCHMARK.json lists %d", len(c.r.Metrics), len(c.specs))
				}
				for _, s := range c.specs {
					m, ok := c.r.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
					}
					if !strings.HasSuffix(c.r.lines[s.Name], " "+s.Unit) {
						t.Errorf("metric line for %s is %q", s.Name, c.r.lines[s.Name])
					}
				}
			}
			for _, s := range b.EndToEnd {
				if plain.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", s.Name, plain.Metrics[s.Name].Value)
				}
			}
			if plain.sha == "" || plain.sha != traced.sha {
				t.Errorf("traced outputs %s, untraced %s", traced.sha, plain.sha)
			}
			leaked := traced.Metrics["introspect.goroutines_leaked"].Value
			switch w.Name {
			case "ingest":
				// Every upload leaks its replay's sequencer goroutine at
				// this commit; the benchmark must show it.
				if leaked < 1 {
					t.Errorf("ingest leaked %v goroutines, want one per upload", leaked)
				}
			default:
				if leaked != 0 {
					t.Errorf("%s leaked %v goroutines", w.Name, leaked)
				}
			}
		})
	}
}

// TestCorruptedReferenceFails proves the output checks bite: with every
// reference corrupted, error_rate must rise above 0.
func TestCorruptedReferenceFails(t *testing.T) {
	for name := range runners {
		t.Run(name, func(t *testing.T) {
			cfg := tinySize(t, name, false)
			cfg.corrupt = true
			r := execTiny(t, cfg)
			f := strings.Fields(r.lines["error_rate"])
			rate, err := strconv.ParseFloat(f[0], 64)
			if r.Correct || r.Failed == 0 || err != nil || rate <= 0 {
				t.Errorf("corrupted references: correct=%v failed=%d error_rate=%q", r.Correct, r.Failed, r.lines["error_rate"])
			}
		})
	}
}

// TestFailsWithoutSources runs the benchmark's command where the checkout
// holds only BENCHMARK.json and the benchmark's own files: it must exit
// non-zero without printing a result.
func TestFailsWithoutSources(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	b := readBenchmarkJSON(t)
	dir := t.TempDir()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range b.Paths {
		err := filepath.WalkDir(filepath.Join("..", p), func(src string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel("..", src)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(src)
			if err != nil {
				return err
			}
			dst := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			return os.WriteFile(dst, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(b.Command[0], append(b.Command[1:], "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0")...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run()
	if err == nil || strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("without the sources: err=%v stdout=%q", err, stdout.String())
	}
}
