package harness

import (
	"fmt"

	"umi/internal/cachegrind"
	"umi/internal/counters"
	"umi/internal/stats"
)

// CountersVsUMI quantifies §1.2's tradeoff: what delinquent-load quality
// does interrupt-driven counter sampling buy at each overhead level,
// against UMI's quality at its own (low, fixed) overhead? For each counter
// sample size, the PMU profiler records the PC of every Nth L2 miss; its
// 90%-coverage PC set is scored against the Cachegrind reference exactly
// like UMI's prediction set.

// CvURow is one sampling configuration.
type CvURow struct {
	Label       string
	SampleSize  uint64
	OverheadPct float64
	Recall      float64
	FalsePos    float64
	SetSize     int
}

// CvUResult compares PMU sampling against UMI on one benchmark.
type CvUResult struct {
	Benchmark string
	Rows      []CvURow
}

// CountersVsUMIRun runs the comparison for the named benchmarks (default:
// mcf, the paper's Table 1 subject, swim and wupwise). Every PMU profiler
// and the Cachegrind reference ride the one UMI run per benchmark, whose
// guest side is also the native time.
func CountersVsUMIRun(benchNames []string) ([]*CvUResult, error) {
	// One heavy misser (PMU-friendly), one moderate, one light: the
	// lighter the benchmark, the finer (and costlier) the sampling a PMU
	// needs before it sees anything at all.
	ws, err := selectWorkloads(benchNames, "181.mcf", "171.swim", "168.wupwise")
	if err != nil {
		return nil, err
	}
	model := counters.DefaultSamplingModel
	sizes := []uint64{10, 100, 1_000, 10_000, 100_000}
	var out []*CvUResult
	for _, w := range ws {
		cg := cachegrind.NewP4()
		profs := make([]*counters.SampledProfiler, len(sizes))
		for i, size := range sizes {
			profs[i] = counters.NewSampledProfiler(P4.L2, size)
		}
		umiRun, err := RunUMI(w, P4, UMIParams(P4), false, false, func(r *UMIRun) {
			r.RT.M.RefHook = func(pc, addr uint64, size uint8, write bool) {
				cg.Ref(pc, addr, size, write)
				for _, p := range profs {
					p.Ref(pc, addr, size, write)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		truth, native := cg.DelinquentSet(0.90), float64(umiRun.RT.M.Cycles)

		res := &CvUResult{Benchmark: w.Name, Rows: make([]CvURow, 0, len(sizes)+1)}
		for i, prof := range profs {
			pred := prof.DelinquentSet(0.90)
			res.Rows = append(res.Rows, CvURow{
				Label:       fmt.Sprintf("PMU@%d", sizes[i]),
				SampleSize:  sizes[i],
				OverheadPct: 100 * float64(prof.OverheadCycles(model)) / native,
				Recall:      stats.Recall(pred, truth),
				FalsePos:    stats.FalsePositiveRatio(pred, truth),
				SetSize:     len(pred),
			})
		}
		pred := umiRun.Report.Delinquent
		res.Rows = append(res.Rows, CvURow{
			Label:       "UMI",
			OverheadPct: 100 * (float64(umiRun.TotalCycles())/native - 1),
			Recall:      stats.Recall(pred, truth),
			FalsePos:    stats.FalsePositiveRatio(pred, truth),
			SetSize:     len(pred),
		})
		out = append(out, res)
	}
	return out, nil
}

// RenderCvU renders the comparison.
func RenderCvU(results []*CvUResult) string {
	if len(results) == 0 {
		return "Counter sampling vs UMI: no benchmarks selected\n"
	}
	var s string
	for _, r := range results {
		t := stats.NewTable(
			fmt.Sprintf("Counter sampling vs UMI on %s (§1.2): quality per overhead", r.Benchmark),
			"Profiler", "Overhead", "Recall", "False Pos", "|set|")
		for _, row := range r.Rows {
			t.AddRow(row.Label, fmt.Sprintf("%.2f%%", row.OverheadPct),
				stats.Pct(row.Recall), stats.Pct(row.FalsePos), fmt.Sprint(row.SetSize))
		}
		s += t.String() + "\n"
	}
	return s
}
