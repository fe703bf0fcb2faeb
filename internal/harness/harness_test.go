package harness

import (
	"strings"
	"testing"
)

// A small cross-suite subset keeps test time reasonable; the bench suite
// runs the full 32-benchmark experiments.
var subset = []string{"181.mcf", "171.swim", "164.gzip", "252.eon", "ft", "em3d"}

func TestSelectWorkloads(t *testing.T) {
	ws, err := selectWorkloads(nil)
	if err != nil || len(ws) != 32 {
		t.Fatalf("nil selection = %d workloads, err %v; want the paper's 32", len(ws), err)
	}
	ws, err = selectWorkloads(subset)
	if err != nil || len(ws) != len(subset) {
		t.Fatalf("subset selection failed: %v", err)
	}
	ws, err = selectWorkloads(nil, "em3d", "ft")
	if err != nil || len(ws) != 2 || ws[0].Name != "em3d" || ws[1].Name != "ft" {
		t.Fatalf("nil selection with defaults = %d workloads, err %v; want em3d, ft", len(ws), err)
	}
	if ws, _ = selectWorkloads(subset, "em3d"); len(ws) != len(subset) {
		t.Errorf("named selection with defaults = %d workloads, want the %d named", len(ws), len(subset))
	}
	if _, err := selectWorkloads([]string{"nope"}); err == nil {
		t.Error("unknown name must error")
	}
}

func TestPlatforms(t *testing.T) {
	h := P4.Hierarchy(true)
	if len(h.Prefetchers) == 0 {
		t.Error("P4 with prefetch must attach prefetchers")
	}
	h = P4.Hierarchy(false)
	if len(h.Prefetchers) != 0 {
		t.Error("P4 without prefetch must not attach prefetchers")
	}
	h = K7.Hierarchy(true)
	if len(h.Prefetchers) != 0 {
		t.Error("K7 has no documented hardware prefetcher")
	}
	if K7.L2.Size >= P4.L2.Size {
		t.Error("K7 L2 must be half the P4 L2 (256KB vs 512KB)")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Monotonically decreasing slowdown with sample size.
	var prev = 1e18
	for _, row := range res.Rows[1:] {
		if row.SlowdownPct >= prev {
			t.Errorf("slowdown not decreasing at size %d: %.1f >= %.1f",
				row.SampleSize, row.SlowdownPct, prev)
		}
		prev = row.SlowdownPct
	}
	first := res.Rows[1]
	last := res.Rows[len(res.Rows)-1]
	if first.SampleSize != 10 || first.SlowdownPct < 300 {
		t.Errorf("sample size 10 slowdown = %.1f%%, want ruinous (>=300%%)", first.SlowdownPct)
	}
	if last.SlowdownPct > 5 {
		t.Errorf("sample size 1M slowdown = %.1f%%, want near-free", last.SlowdownPct)
	}
	// UMI must be far cheaper than fine-grained counter sampling.
	if res.UMISlowPct > 20 {
		t.Errorf("UMI slowdown = %.1f%%, want small", res.UMISlowPct)
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Error("render must carry the table title")
	}
}

func TestTable2(t *testing.T) {
	out := Table2()
	for _, want := range []string{"Simulators", "HW counters", "UMI", "Overhead", "Versatility"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(subset) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(subset))
	}
	for _, row := range res.Rows {
		if row.ProfiledOps == 0 {
			t.Errorf("%s: no profiled operations", row.Name)
		}
		if row.ProfiledPct <= 0 || row.ProfiledPct >= 100 {
			t.Errorf("%s: %% profiled = %.2f, want in (0, 100): filtering must bite",
				row.Name, row.ProfiledPct)
		}
		if row.Profiles < row.Invocations {
			t.Errorf("%s: profiles %d < invocations %d", row.Name, row.Profiles, row.Invocations)
		}
		if row.Invocations == 0 {
			t.Errorf("%s: analyzer never ran", row.Name)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	res, err := Table4(subset)
	if err != nil {
		t.Fatal(err)
	}
	all := res.CachegrindNoPF[len(res.CachegrindNoPF)-1]
	// Cachegrind simulates the same geometry as the ground truth without
	// prefetchers: correlation must be exactly 1 (DESIGN.md).
	if all.R < 0.9999 {
		t.Errorf("Cachegrind no-prefetch correlation = %.4f, want 1.0", all.R)
	}
	umiAll := res.UMINoPF[len(res.UMINoPF)-1]
	if umiAll.R < 0.5 {
		t.Errorf("UMI overall correlation = %.3f, want strong (on full suite: ~0.96)", umiAll.R)
	}
	// Prefetch-on correlation must not exceed prefetch-off (prefetching
	// side effects are unmodelled by the simulators).
	umiPF := res.UMIPF[len(res.UMIPF)-1]
	if umiPF.R > umiAll.R+0.01 {
		t.Errorf("prefetch-on correlation %.3f exceeds prefetch-off %.3f", umiPF.R, umiAll.R)
	}
	for _, b := range res.PerBench {
		if b.Cachegrind != b.HWNoPF {
			t.Errorf("%s: cachegrind %.4f != HW no-prefetch %.4f", b.Name, b.Cachegrind, b.HWNoPF)
		}
		if b.HWPF > b.HWNoPF+1e-9 {
			t.Errorf("%s: prefetching increased the miss ratio (%.4f > %.4f)",
				b.Name, b.HWPF, b.HWNoPF)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	res, err := Table6(subset)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table6Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Memory-intensive benchmarks: near-perfect recall and coverage.
	for _, name := range []string{"181.mcf", "ft", "em3d", "171.swim"} {
		r := byName[name]
		if r.Recall < 0.99 {
			t.Errorf("%s: recall = %.2f, want ~1.0", name, r.Recall)
		}
		if r.PMissCoverage < 0.9 {
			t.Errorf("%s: P coverage = %.2f, want >= 0.9", name, r.PMissCoverage)
		}
	}
	// The high-miss average must dominate the low-miss average, the
	// paper's headline contrast (88% vs much lower).
	if res.AvgHigh.Recall <= res.AvgLow.Recall {
		t.Errorf("high-group recall %.2f must exceed low-group %.2f",
			res.AvgHigh.Recall, res.AvgLow.Recall)
	}
	if res.AvgHigh.PMissCoverage < 0.8 {
		t.Errorf("high-group coverage = %.2f, want >= 0.8", res.AvgHigh.PMissCoverage)
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(subset)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.RIO < 0.8 || row.RIO > 2.0 {
			t.Errorf("%s: substrate ratio %.3f implausible", row.Name, row.RIO)
		}
		// UMI costs at least as much as the bare substrate.
		if row.UMINoSamp < row.RIO-0.01 {
			t.Errorf("%s: UMI (%.3f) cheaper than substrate (%.3f)",
				row.Name, row.UMINoSamp, row.RIO)
		}
		// Sampling must not cost more than always-instrument.
		if row.UMISampling > row.UMINoSamp+0.02 {
			t.Errorf("%s: sampling (%.3f) costlier than no-sampling (%.3f)",
				row.Name, row.UMISampling, row.UMINoSamp)
		}
	}
	// Overall overhead stays modest (the paper's 14% story).
	if res.GeoSamp > 1.30 {
		t.Errorf("geomean UMI overhead = %.3f, want <= 1.30", res.GeoSamp)
	}
}

func TestFig3PrefetchingWins(t *testing.T) {
	res, err := Fig3(subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no prefetching opportunities found")
	}
	// Software prefetching must win on average, with ft the best case
	// (the paper: 11% average, 64% best case).
	if res.GeoSW >= res.GeoUMI {
		t.Errorf("SW prefetching geomean %.3f not better than plain UMI %.3f",
			res.GeoSW, res.GeoUMI)
	}
	best := 1.0
	for _, row := range res.Rows {
		if row.UMISW < best {
			best = row.UMISW
		}
	}
	if best > 0.8 {
		t.Errorf("best case normalized time = %.3f, want a large win (<= 0.8)", best)
	}
}

func TestFig6CumulativeMissReduction(t *testing.T) {
	res, err := Fig6(subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Combined prefetching reduces misses at least as much as either
	// scheme alone, per benchmark (§8's cumulative coverage finding).
	for _, row := range res.Rows {
		if row.MissBoth > row.MissHW+0.02 || row.MissBoth > row.MissSW+0.02 {
			t.Errorf("%s: combined misses %.3f exceed single schemes (SW %.3f, HW %.3f)",
				row.Name, row.MissBoth, row.MissSW, row.MissHW)
		}
	}
}

func TestSensitivityThresholdShape(t *testing.T) {
	res, err := SensitivityThreshold([]string{"181.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 11 { // 1..1024 in powers of two
		t.Fatalf("points = %d, want 11", len(pts))
	}
	// mcf: recall stable at low thresholds (paper: constant for 1-256).
	if pts[0].Recall < 0.99 {
		t.Errorf("threshold 1 recall = %.2f, want ~1", pts[0].Recall)
	}
	// Recall at the highest threshold must not exceed the lowest (it
	// generally decreases).
	if pts[len(pts)-1].Recall > pts[0].Recall+1e-9 {
		t.Errorf("recall rose with threshold: %.2f -> %.2f",
			pts[0].Recall, pts[len(pts)-1].Recall)
	}
	if out := RenderSens(res); !strings.Contains(out, "181.mcf") {
		t.Error("render missing benchmark name")
	}
}

func TestTable5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 15-benchmark 2006 subset")
	}
	res, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 15 {
		t.Fatalf("benchmarks = %d, want 15", len(res.PerBench))
	}
	all := res.Cells[len(res.Cells)-1]
	if all.Group != "SPEC2006" {
		t.Errorf("aggregate group = %q", all.Group)
	}
	if all.R < 0.5 {
		t.Errorf("SPEC2006 correlation = %.3f, want strong (paper: 0.85)", all.R)
	}
}

func TestSensitivityGeometryShape(t *testing.T) {
	res, err := SensitivityGeometry([]string{"181.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if len(r.Geometries) != 5 || len(r.Lengths) == 0 {
		t.Fatalf("sweep sizes: %d geometries, %d lengths", len(r.Geometries), len(r.Lengths))
	}
	// §5's claim: profile length matters far more than cache geometry.
	if r.LenSpread < 3*r.GeomSpread {
		t.Errorf("length spread %.4f must dominate geometry spread %.4f",
			r.LenSpread, r.GeomSpread)
	}
	if out := RenderGeometry(res); out == "" {
		t.Error("empty render")
	}
}

func TestLinuxAppsShape(t *testing.T) {
	res, err := LinuxApps()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.HWMissRatio >= 0.01 {
			t.Errorf("%s: HW miss ratio %.2f%%, must be very low (§6.3)",
				row.Name, 100*row.HWMissRatio)
		}
		if row.OverheadPct > 40 {
			t.Errorf("%s: overhead %.1f%%, implausibly high", row.Name, row.OverheadPct)
		}
	}
}

func TestCountersVsUMIShape(t *testing.T) {
	res, err := CountersVsUMIRun([]string{"168.wupwise"})
	if err != nil {
		t.Fatal(err)
	}
	rows := res[0].Rows
	umiRow := rows[len(rows)-1]
	if umiRow.Label != "UMI" {
		t.Fatalf("last row = %q, want UMI", umiRow.Label)
	}
	if umiRow.Recall < 0.99 {
		t.Errorf("UMI recall = %.2f, want ~1.0", umiRow.Recall)
	}
	// The finest PMU sampling must be ruinously expensive relative to UMI.
	finest := rows[0]
	if finest.SampleSize != 10 {
		t.Fatalf("first row sample size = %d", finest.SampleSize)
	}
	if finest.OverheadPct < 5*umiRow.OverheadPct {
		t.Errorf("PMU@10 overhead %.1f%% should dwarf UMI's %.1f%%",
			finest.OverheadPct, umiRow.OverheadPct)
	}
	// Coarse sampling on a light misser sees little or nothing (§1.2).
	coarse := rows[len(rows)-2] // PMU@100000
	if coarse.Recall > umiRow.Recall {
		t.Errorf("coarse PMU recall %.2f exceeds UMI %.2f on a light misser",
			coarse.Recall, umiRow.Recall)
	}
}

func TestFig4K7Shape(t *testing.T) {
	res, err := Fig4([]string{"ft", "171.swim", "181.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no prefetch candidates on the K7")
	}
	// As on the P4, software prefetching wins on the K7 (the paper's 11%
	// on both platforms).
	if res.GeoSW >= res.GeoUMI {
		t.Errorf("K7 SW geomean %.3f not better than plain %.3f", res.GeoSW, res.GeoUMI)
	}
}

func TestFig5NotCumulative(t *testing.T) {
	res, err := Fig5([]string{"ft", "171.swim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// §8's finding: combining software and hardware prefetching does not
	// compound running-time gains — the combination must not beat the
	// better single scheme by any meaningful margin.
	bestSingle := res.GeoHW
	if res.GeoSW < bestSingle {
		bestSingle = res.GeoSW
	}
	if res.GeoBoth < bestSingle-0.02 {
		t.Errorf("combination %.3f beats best single %.3f by too much: gains compounded",
			res.GeoBoth, bestSingle)
	}
}
