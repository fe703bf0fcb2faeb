package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"umi/internal/umi"
	"umi/internal/workloads"
)

// The golden tests pin every rendered report byte-exact. The simulator is
// deterministic, so any drift — a reordered row, a reformatted column, a
// changed statistic — fails the comparison. After an intentional change,
// regenerate with:
//
//	go test ./internal/harness -run Golden -update

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>.golden byte-exact, or
// rewrites the file under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with `go test ./internal/harness -run Golden -update`): %v",
			path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from its golden file at %s\n--- got ---\n%s--- want ---\n%s",
			name, firstDiff(string(want), got), got, want)
	}
}

// firstDiff names the first diverging line, so a one-character drift in a
// wide table is findable without eyeballing the full dump.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1)
		}
	}
	return "line " + itoa(min(len(wl), len(gl))+1)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// figNames is a smaller subset for the prefetch figures, which run each
// candidate benchmark four times. Kept to two workloads (one streamer
// with prefetch opportunities, one pointer code) so the package stays
// inside the race detector's time budget in `make check`.
var figNames = []string{"171.swim", "em3d"}

func TestGoldenTable1(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table1", r.String())
}

func TestGoldenTable2(t *testing.T) {
	golden(t, "table2", Table2())
}

func TestGoldenTable3(t *testing.T) {
	r, err := Table3(subset)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table3", r.String())
}

func TestGoldenTable4(t *testing.T) {
	r, err := Table4(subset)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table4", r.String())
}

func TestGoldenTable5(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table5", r.String())
}

func TestGoldenTable6(t *testing.T) {
	r, err := Table6(subset)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table6", r.String())
}

func TestGoldenFig2(t *testing.T) {
	r, err := Fig2(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig2", r.String())
}

func TestGoldenFig3(t *testing.T) {
	r, err := Fig3(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig3", r.String())
}

func TestGoldenFig4(t *testing.T) {
	r, err := Fig4(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig4", r.String())
}

func TestGoldenFig5(t *testing.T) {
	r, err := Fig5(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5", r.String())
}

func TestGoldenFig6(t *testing.T) {
	r, err := Fig6(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig6", r.String())
}

func TestGoldenSensThreshold(t *testing.T) {
	r, err := SensitivityThreshold([]string{"470.lbm"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "sens_threshold", RenderSens(r))
}

func TestGoldenSensProfileLen(t *testing.T) {
	r, err := SensitivityProfileLen([]string{"470.lbm"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "sens_profile", RenderSens(r))
}

func TestGoldenSensGeometry(t *testing.T) {
	r, err := SensitivityGeometry([]string{"em3d"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "sens_geometry", RenderGeometry(r))
}

func TestGoldenCountersVsUMI(t *testing.T) {
	r, err := CountersVsUMIRun([]string{"470.lbm"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "counters_vs_umi", RenderCvU(r))
}

func TestGoldenLinuxApps(t *testing.T) {
	r, err := LinuxApps()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "linuxapps", r.String())
}

// TestGoldenSelfOverhead pins only the deterministic half of the
// self-overhead report; LiveString carries wall-clock latency and is
// excluded by design.
func TestGoldenSelfOverhead(t *testing.T) {
	r, err := SelfOverhead([]string{"470.lbm", "em3d"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "self_overhead", r.String())
	// The measured half is never golden-compared, but it must render the
	// wall sections for the same workloads.
	live := r.LiveString()
	for _, want := range []string{"Measured analysis latency", "Event tracing throughput", "470.lbm"} {
		if !strings.Contains(live, want) {
			t.Errorf("LiveString missing %q:\n%s", want, live)
		}
	}
}

// TestGoldenTimeline pins the delinquent-set-evolution figure, the
// event-tracing layer's deterministic render: every column derives from
// the modelled cycle clock, so it is byte-stable like any other table.
func TestGoldenTimeline(t *testing.T) {
	r, err := Timeline([]string{"470.lbm", "em3d"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "timeline", r.String())
}

// TestGoldenPhases pins the phase-history figure: the windowed
// miss-ratio/churn render drawn from the profile-history ring. Every
// column derives from modelled state, so it is byte-stable.
func TestGoldenPhases(t *testing.T) {
	r, err := Phases([]string{"470.lbm", "em3d"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "phases", r.String())
}

// TestGoldenUMIReport pins the umi.Report rendering itself, the string
// every consumer above the harness sees.
func TestGoldenUMIReport(t *testing.T) {
	w, ok := workloads.ByName("470.lbm")
	if !ok {
		t.Fatal("470.lbm missing from the workload registry")
	}
	run, err := RunUMI(w, P4, UMIParams(P4), false, false)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "umi_report", run.Report.String()+"\n")
}

// TestGoldenOverheadReport pins the per-stage attribution render for one
// deterministic run — the modelled-cycles view only (String); the wall
// view (LiveString) is measured and excluded by design.
func TestGoldenOverheadReport(t *testing.T) {
	w, ok := workloads.ByName("470.lbm")
	if !ok {
		t.Fatal("470.lbm missing from the workload registry")
	}
	run, err := RunUMI(w, P4, UMIParams(P4), false, false)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "overhead_report", run.Sys.Overhead().String())
}

// TestGoldenOverheadFrontier pins the overhead/accuracy frontier figure on
// a two-workload subset and asserts the acceptance bar the figure exists
// to demonstrate: the burst-8 + adaptation point must cut fill cycles by
// at least 40% on average while keeping delinquent-set recall at 0.90+.
func TestGoldenOverheadFrontier(t *testing.T) {
	r, err := OverheadFrontier(figNames)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "overhead_frontier", r.String())

	var adapt *FrontierPoint
	for _, pt := range r.Points {
		if pt.Config.Label == "burst-8+adapt" {
			adapt = pt
		}
	}
	if adapt == nil {
		t.Fatal("frontier has no burst-8+adapt point")
	}
	if adapt.MeanFillReductionPct < 40 {
		t.Errorf("burst-8+adapt cuts fill cycles by %.1f%%, acceptance bar is 40%%",
			adapt.MeanFillReductionPct)
	}
	if adapt.MeanRecall < 0.90 {
		t.Errorf("burst-8+adapt recall = %.3f, acceptance bar is 0.90", adapt.MeanRecall)
	}
}

// TestEmptyRenderers checks the degraded renders: every report producer
// must say explicitly that there is nothing to show rather than emitting
// an empty string or a header-only table (satellite of the observability
// work — an empty session must be distinguishable from a broken pipe).
func TestEmptyRenderers(t *testing.T) {
	cases := []struct {
		name, got, want string
	}{
		{"umi.Report", (&umi.Report{}).String(), "no traces instrumented"},
		{"RenderSens", RenderSens(nil), "Sensitivity: no benchmarks selected\n"},
		{"RenderGeometry", RenderGeometry(nil), "Geometry sensitivity: no benchmarks selected\n"},
		{"RenderCvU", RenderCvU(nil), "Counter sampling vs UMI: no benchmarks selected\n"},
		{"Fig2Result", (&Fig2Result{}).String(), "Figure 2: no benchmarks selected\n"},
		{"PrefetchResult", (&PrefetchResult{Title: "Figure 3"}).String(),
			"Figure 3: no benchmarks with prefetching opportunities\n"},
		{"Table3Result", (&Table3Result{}).String(), "Table 3: no benchmarks selected\n"},
		{"Table6Result", (&Table6Result{}).String(), "Table 6: no benchmarks selected\n"},
		{"SelfOverheadResult", (&SelfOverheadResult{}).String(), "Self-overhead: no workloads selected\n"},
		{"TimelineResult", (&TimelineResult{}).String(), "Timeline: no benchmarks selected\n"},
		{"PhasesResult", (&PhasesResult{}).String(), "Phases: no benchmarks selected\n"},
		{"FormatHistory", umi.FormatHistory(nil), "phase history: no analyzer invocations\n"},
		{"OverheadReport", (&umi.OverheadReport{}).String(), "self-overhead: no guest cycles recorded\n"},
		{"OverheadReport.Live", (&umi.OverheadReport{}).LiveString(), "self-overhead (wall): no wall time recorded\n"},
		{"FrontierResult", (&FrontierResult{}).String(), "Overhead frontier: no configurations\n"},
	}
	for _, c := range cases {
		if !strings.Contains(c.got, strings.TrimSuffix(c.want, "\n")) {
			t.Errorf("%s empty render = %q, want it to contain %q", c.name, c.got, c.want)
		}
	}
}
