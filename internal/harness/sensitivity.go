package harness

import (
	"fmt"

	"umi/internal/cachegrind"
	"umi/internal/stats"
	"umi/internal/umi"
)

// Sensitivity studies from §7.2: the frequency threshold sweep and the
// address-profile length sweep, both on 181.mcf (memory intensive, stable
// loops) and 197.parser (low miss ratio, short dynamic loops) — the
// paper's two representative benchmarks.

// SensPoint is one configuration's prediction quality.
type SensPoint struct {
	Value          int // threshold or profile rows
	Recall         float64
	FalsePositives float64
	OverheadPct    float64
	PredSize       int
}

// SensResult is one benchmark's sweep.
type SensResult struct {
	Benchmark string
	Param     string
	Points    []SensPoint
}

// SensitivityThreshold sweeps the sampling frequency threshold in powers
// of two from 1 to 1024 (§7.2).
func SensitivityThreshold(benchNames []string) ([]*SensResult, error) {
	return sensitivity(benchNames, "frequency threshold",
		[]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
		func(cfg *umi.Config, th int) { cfg.FrequencyThreshold = th })
}

// SensitivityProfileLen sweeps the address-profile length (executions
// recorded per trace) in powers of two from 64 to 32K (§7.2).
func SensitivityProfileLen(benchNames []string) ([]*SensResult, error) {
	return sensitivity(benchNames, "address profile rows",
		[]int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}, setProfileRows)
}

// setProfileRows sets the address-profile length, keeping the global
// trace-profile trigger from firing before a single profile fills, as in
// the paper's setup.
func setProfileRows(cfg *umi.Config, rows int) {
	cfg.AddressProfileRows = rows
	if cfg.TraceProfileLen < rows {
		cfg.TraceProfileLen = rows * 4
	}
}

// sensitivity runs one §7.2 sweep: per benchmark, one UMI run for each
// value, which set applies to the standard configuration, scored against
// the Cachegrind reference, which rides the first value's run, and the
// native running time, which is each run's guest side.
func sensitivity(benchNames []string, param string, values []int,
	set func(*umi.Config, int)) ([]*SensResult, error) {
	ws, err := selectWorkloads(benchNames, "181.mcf", "197.parser")
	if err != nil {
		return nil, err
	}
	var out []*SensResult
	for _, w := range ws {
		cg := cachegrind.NewP4()
		preds := make([]map[uint64]bool, len(values))
		res := &SensResult{Benchmark: w.Name, Param: param, Points: make([]SensPoint, len(values))}
		err = forEachIndexed(len(values), func(i int) error {
			cfg := UMIParams(P4)
			set(&cfg, values[i])
			run, err := RunUMI(w, P4, cfg, false, false, func(r *UMIRun) {
				if i == 0 {
					r.RT.M.RefHook = cg.Ref
				}
			})
			if err != nil {
				return err
			}
			preds[i] = run.Report.Delinquent
			res.Points[i] = SensPoint{
				Value:       values[i],
				OverheadPct: 100 * (float64(run.TotalCycles())/float64(run.RT.M.Cycles) - 1),
				PredSize:    len(preds[i]),
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		truth := cg.DelinquentSet(0.90)
		for i, p := range preds {
			res.Points[i].Recall = stats.Recall(p, truth)
			res.Points[i].FalsePositives = stats.FalsePositiveRatio(p, truth)
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderSens renders a sweep result set.
func RenderSens(results []*SensResult) string {
	if len(results) == 0 {
		return "Sensitivity: no benchmarks selected\n"
	}
	var s string
	for _, r := range results {
		t := stats.NewTable(fmt.Sprintf("Sensitivity: %s vs %s", r.Benchmark, r.Param),
			r.Param, "Recall", "False Pos", "Overhead", "|P|")
		for _, pt := range r.Points {
			t.AddRow(fmt.Sprint(pt.Value), stats.Pct(pt.Recall), stats.Pct(pt.FalsePositives),
				fmt.Sprintf("%.1f%%", pt.OverheadPct), fmt.Sprint(pt.PredSize))
		}
		s += t.String() + "\n"
	}
	return s
}
