package harness

import (
	"fmt"

	"umi/internal/cachegrind"
	"umi/internal/stats"
	"umi/internal/umi"
)

// The overhead/accuracy frontier: what does burst sampling and adaptive
// instrumentation actually buy, and what does it cost in prediction
// quality? Each frontier point is one sampling configuration run over the
// same workload set; rows report the fill-stage cost-model charge (the
// instrumented-execution overhead sampling is supposed to shrink), its
// reduction against the full-instrumentation baseline, the whole-run
// overhead ratio, and prediction quality against the Cachegrind ground
// truth the accuracy tables already use. Everything rendered is modelled
// or counted — byte-stable at any worker count, golden-testable.

// FrontierSchema identifies the FrontierResult JSON shape.
const FrontierSchema = "umi-frontier/v1"

// FrontierConfig is one sampling configuration under sweep.
type FrontierConfig struct {
	Label       string `json:"label"`
	BurstPeriod int    `json:"burst_period"` // 0/1 = every execution
	Adaptive    bool   `json:"adaptive"`
	SamplerSeed uint64 `json:"sampler_seed"`
}

// FrontierRow is one workload under one configuration.
type FrontierRow struct {
	Benchmark string `json:"benchmark"`
	// FillCycles is the fill stage's modelled charge (prologs + recorded
	// refs); FillReductionPct relates it to the full-instrumentation
	// baseline for the same workload.
	FillCycles       uint64  `json:"fill_cycles"`
	FillReductionPct float64 `json:"fill_reduction_pct"`
	// OverheadPct is the run's whole-stack self-overhead ratio
	// (introspection cycles / guest cycles).
	OverheadPct float64 `json:"overhead_pct"`
	Recall      float64 `json:"recall"`
	FalsePos    float64 `json:"false_pos"`
	SetSize     int     `json:"set_size"`
	// SimMissRatio vs HWMissRatio feed the per-configuration correlation.
	SimMissRatio float64 `json:"sim_miss_ratio"`
	HWMissRatio  float64 `json:"hw_miss_ratio"`
}

// FrontierPoint is one configuration's column of the frontier.
type FrontierPoint struct {
	Config FrontierConfig `json:"config"`
	Rows   []FrontierRow  `json:"rows"`
	// Aggregates across the workload set: mean fill reduction, mean
	// recall, and the sim-vs-hardware miss-ratio correlation.
	MeanFillReductionPct float64 `json:"mean_fill_reduction_pct"`
	MeanRecall           float64 `json:"mean_recall"`
	MissCorrelation      float64 `json:"miss_correlation"`
}

// FrontierResult is the umibench "overhead-frontier" experiment.
type FrontierResult struct {
	Schema string           `json:"schema"`
	Points []*FrontierPoint `json:"points"`
}

// frontierConfigs is the standard sweep: the full-instrumentation
// baseline first (reductions are relative to it), then burst sampling
// alone and combined with history-driven adaptation.
func frontierConfigs() []FrontierConfig {
	return []FrontierConfig{
		{Label: "full", BurstPeriod: 1},
		{Label: "burst-8", BurstPeriod: 8, SamplerSeed: 1},
		{Label: "burst-8+adapt", BurstPeriod: 8, Adaptive: true, SamplerSeed: 1},
		{Label: "burst-32+adapt", BurstPeriod: 32, Adaptive: true, SamplerSeed: 1},
	}
}

// frontierParams clones the harness's standard UMI configuration and
// applies one frontier cell's sampling knobs.
func frontierParams(fc FrontierConfig) umi.Config {
	cfg := UMIParams(P4)
	if fc.BurstPeriod > 1 {
		cfg.BurstPeriod = fc.BurstPeriod
		cfg.SamplerSeed = fc.SamplerSeed
	}
	if fc.Adaptive {
		cfg.AdaptSampling = true
	}
	return cfg
}

// OverheadFrontier sweeps the sampling configurations over the named
// workloads (default: two memory-bound SPEC benchmarks and two Olden-style
// pointer chasers — the accuracy-table regulars).
func OverheadFrontier(names []string) (*FrontierResult, error) {
	ws, err := selectWorkloads(names, "181.mcf", "197.parser", "em3d", "470.lbm")
	if err != nil {
		return nil, err
	}
	configs := frontierConfigs()
	res := &FrontierResult{Schema: FrontierSchema,
		Points: make([]*FrontierPoint, len(configs))}
	for ci, fc := range configs {
		res.Points[ci] = &FrontierPoint{Config: fc,
			Rows: make([]FrontierRow, len(ws))}
	}
	// One cell = workload × configuration; each workload's ground truth
	// rides its baseline run. Cells share nothing else, so fan the whole
	// grid out; scoring and the baseline-relative reduction are filled in
	// a second pass. Prediction sets stay out of the JSON artifact (maps
	// of PCs), so they live in a side grid for the scoring pass.
	cgs := make([]*cachegrind.Simulator, len(ws))
	preds := make([][]map[uint64]bool, len(configs))
	for ci := range preds {
		preds[ci] = make([]map[uint64]bool, len(ws))
	}
	err = forEachIndexed(len(ws)*len(configs), func(cell int) error {
		wi, ci := cell/len(configs), cell%len(configs)
		w := ws[wi]
		run, err := RunUMI(w, P4, frontierParams(configs[ci]), false, false, func(r *UMIRun) {
			if ci == 0 {
				cgs[wi] = cachegrind.NewP4()
				r.RT.M.RefHook = cgs[wi].Ref
			}
		})
		if err != nil {
			return err
		}
		pred, ovh := run.Report.Delinquent, run.Sys.Overhead()
		preds[ci][wi] = pred
		res.Points[ci].Rows[wi] = FrontierRow{
			Benchmark:    w.Name,
			FillCycles:   ovh.Stage("fill").ModelledCycles,
			OverheadPct:  100 * ovh.OverheadRatio,
			SetSize:      len(pred),
			SimMissRatio: run.Report.SimMissRatio,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := res.Points[0]
	for ci, pt := range res.Points {
		var sim, hw []float64
		for wi := range pt.Rows {
			row := &pt.Rows[wi]
			truth := cgs[wi].DelinquentSet(0.90)
			row.Recall = stats.Recall(preds[ci][wi], truth)
			row.FalsePos = stats.FalsePositiveRatio(preds[ci][wi], truth)
			row.HWMissRatio = cgs[wi].L2MissRatio()
			if full := base.Rows[wi].FillCycles; full > 0 {
				row.FillReductionPct = 100 * (1 - float64(row.FillCycles)/float64(full))
			}
			sim = append(sim, row.SimMissRatio)
			hw = append(hw, row.HWMissRatio)
			pt.MeanFillReductionPct += row.FillReductionPct
			pt.MeanRecall += row.Recall
		}
		if n := len(pt.Rows); n > 0 {
			pt.MeanFillReductionPct /= float64(n)
			pt.MeanRecall /= float64(n)
		}
		pt.MissCorrelation = stats.Correlation(sim, hw)
	}
	return res, nil
}

// String renders the frontier in the accuracy tables' style: one table
// per configuration with an aggregate footer. Fully deterministic.
func (r *FrontierResult) String() string {
	if r == nil || len(r.Points) == 0 {
		return "Overhead frontier: no configurations\n"
	}
	var s string
	for _, pt := range r.Points {
		t := stats.NewTable(
			fmt.Sprintf("Overhead/accuracy frontier: %s", pt.Config.Label),
			"Benchmark", "Fill Cycles", "Fill Cut", "Overhead", "Recall",
			"False Pos", "|P|", "Sim MR", "HW MR")
		for _, row := range pt.Rows {
			t.AddRow(row.Benchmark,
				fmt.Sprint(row.FillCycles),
				fmt.Sprintf("%.1f%%", row.FillReductionPct),
				fmt.Sprintf("%.3f%%", row.OverheadPct),
				stats.Pct(row.Recall), stats.Pct(row.FalsePos),
				fmt.Sprint(row.SetSize),
				fmt.Sprintf("%.4f", row.SimMissRatio),
				fmt.Sprintf("%.4f", row.HWMissRatio))
		}
		t.AddRow("mean", "", fmt.Sprintf("%.1f%%", pt.MeanFillReductionPct), "",
			stats.Pct(pt.MeanRecall), "", "",
			fmt.Sprintf("r=%.3f", pt.MissCorrelation), "")
		s += t.String() + "\n"
	}
	return s
}
