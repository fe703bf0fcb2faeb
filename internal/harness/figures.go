package harness

import (
	"fmt"

	"umi/internal/stats"
	"umi/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 2 — runtime overhead of the substrate and UMI.
// ---------------------------------------------------------------------

// Fig2Row is one benchmark's overhead bars, as ratios to native time.
type Fig2Row struct {
	Name        string
	RIO         float64 // substrate only ("DynamoRIO" bar)
	UMINoSamp   float64 // UMI without sampling reinforcement
	UMISampling float64 // UMI with sampling
}

// Fig2Result reproduces Figure 2.
type Fig2Result struct {
	Rows    []Fig2Row
	GeoRIO  float64
	GeoNoS  float64
	GeoSamp float64
}

// Fig2 measures runtime overhead on the Pentium 4 with hardware
// prefetching enabled, as the paper's Figure 2 does (nil = the 32 core
// benchmarks). The native time is the rio run's guest side.
func Fig2(names []string) (*Fig2Result, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Rows: make([]Fig2Row, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		rt, err := RunRIO(w, P4, true)
		if err != nil {
			return err
		}
		cfgNo := UMIParams(P4)
		cfgNo.UseSampling = false
		noSamp, err := RunUMI(w, P4, cfgNo, true, false)
		if err != nil {
			return err
		}
		samp, err := RunUMI(w, P4, UMIParams(P4), true, false)
		if err != nil {
			return err
		}
		native := float64(rt.M.Cycles)
		res.Rows[i] = Fig2Row{
			Name:        w.Name,
			RIO:         float64(rt.TotalCycles()) / native,
			UMINoSamp:   float64(noSamp.TotalCycles()) / native,
			UMISampling: float64(samp.TotalCycles()) / native,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GeoRIO = geoMean(res.Rows, func(r Fig2Row) float64 { return r.RIO })
	res.GeoNoS = geoMean(res.Rows, func(r Fig2Row) float64 { return r.UMINoSamp })
	res.GeoSamp = geoMean(res.Rows, func(r Fig2Row) float64 { return r.UMISampling })
	return res, nil
}

// geoMean is the geometric mean of one column of a figure's rows.
func geoMean[R any](rows []R, col func(R) float64) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = col(r)
	}
	return stats.GeoMean(xs)
}

func (r *Fig2Result) String() string {
	if len(r.Rows) == 0 {
		return "Figure 2: no benchmarks selected\n"
	}
	t := stats.NewTable("Figure 2: runtime overhead on Pentium 4 (ratios to native; 1.00 = no overhead)",
		"Benchmark", "DynamoRIO", "UMI no-sampling", "UMI sampling")
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.3f", row.RIO),
			fmt.Sprintf("%.3f", row.UMINoSamp), fmt.Sprintf("%.3f", row.UMISampling))
	}
	t.AddRow("geomean", fmt.Sprintf("%.3f", r.GeoRIO),
		fmt.Sprintf("%.3f", r.GeoNoS), fmt.Sprintf("%.3f", r.GeoSamp))
	return t.String()
}

// ---------------------------------------------------------------------
// Figures 3-5 — running time with software prefetching.
// ---------------------------------------------------------------------

// PrefetchRow is one benchmark's normalized running times for a
// prefetching figure. Fields not used by a given figure are zero.
type PrefetchRow struct {
	Name     string
	Inserted int     // prefetches the optimizer injected
	UMIOnly  float64 // introspection, no optimization
	UMISW    float64 // introspection + software prefetching
	HWOnly   float64 // native with hardware prefetch (Fig 5)
	UMISWHW  float64 // software + hardware combined (Fig 5)
	// Figure 6 companions: L2 misses normalized to native-no-prefetch.
	MissSW   float64
	MissHW   float64
	MissBoth float64
}

// PrefetchResult covers Figures 3, 4, 5 and 6.
type PrefetchResult struct {
	Title   string
	Rows    []PrefetchRow
	GeoUMI  float64
	GeoSW   float64
	GeoHW   float64
	GeoBoth float64
}

// measured is what the prefetching figures read from one run.
type measured struct {
	cycles   uint64 // modelled running time
	l2Misses uint64
}

// prefetchCandidate is a benchmark on which the optimizer found
// opportunities, with what its runs measured.
type prefetchCandidate struct {
	w        *workloads.Workload
	inserted int      // prefetches the optimizer injected
	sw       measured // UMI with software prefetching: the scan's own run
	// Figures 5 and 6 only, on the Pentium 4: native without prefetching
	// (their baseline), native with hardware prefetching, and UMI with
	// software and hardware prefetching together.
	base, hw, both measured
}

// prefetchCandidates runs the selected benchmarks with the optimizer
// attached on the given platform and keeps those where it found
// opportunities (the paper found 11 of 32). The figures read each
// candidate's software-prefetching run from here instead of repeating it.
func prefetchCandidates(names []string, p *Platform) ([]prefetchCandidate, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	all := make([]prefetchCandidate, len(ws))
	err = forEachIndexed(len(ws), func(i int) error {
		run, err := RunUMI(ws[i], p, UMIParams(p), false, true)
		if err != nil {
			return err
		}
		all[i] = prefetchCandidate{w: ws[i], inserted: len(run.Opt.Insertions),
			sw: measured{run.TotalCycles(), run.H.L2Stats.Misses}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []prefetchCandidate
	for _, c := range all {
		if c.inserted > 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// Fig3 reproduces Figure 3: running time on the Pentium 4 with hardware
// prefetching disabled, normalized to native, for the benchmarks with
// prefetching opportunities.
func Fig3(names []string) (*PrefetchResult, error) {
	return prefetchFigure("Figure 3: running time on Pentium 4, HW prefetch disabled (normalized to native)",
		names, P4)
}

// Fig4 reproduces Figure 4: the same experiment on the AMD K7.
func Fig4(names []string) (*PrefetchResult, error) {
	return prefetchFigure("Figure 4: running time on AMD K7 (normalized to native)", names, K7)
}

// prefetchFigure normalizes each candidate's runs to native time, which
// its plain UMI run's guest side gives.
func prefetchFigure(title string, names []string, p *Platform) (*PrefetchResult, error) {
	cands, err := prefetchCandidates(names, p)
	if err != nil {
		return nil, err
	}
	res := &PrefetchResult{Title: title, Rows: make([]PrefetchRow, len(cands))}
	err = forEachIndexed(len(cands), func(i int) error {
		c := cands[i]
		plain, err := RunUMI(c.w, p, UMIParams(p), false, false)
		if err != nil {
			return err
		}
		native := float64(plain.RT.M.Cycles)
		res.Rows[i] = PrefetchRow{
			Name:     c.w.Name,
			Inserted: c.inserted,
			UMIOnly:  float64(plain.TotalCycles()) / native,
			UMISW:    float64(c.sw.cycles) / native,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GeoUMI = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.UMIOnly })
	res.GeoSW = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.UMISW })
	return res, nil
}

// hwPrefetchCandidates finds the Pentium 4 candidates and measures
// Figures 5 and 6's other three runs on each. Both baselines run natively:
// every UMI run here rewrites the guest, so none can stand in for them.
func hwPrefetchCandidates(names []string) ([]prefetchCandidate, error) {
	cands, err := prefetchCandidates(names, P4)
	if err != nil {
		return nil, err
	}
	err = forEachIndexed(len(cands), func(i int) error {
		c := &cands[i]
		base, err := RunNative(c.w, P4, false)
		if err != nil {
			return err
		}
		hw, err := RunNative(c.w, P4, true)
		if err != nil {
			return err
		}
		both, err := RunUMI(c.w, P4, UMIParams(P4), true, true)
		if err != nil {
			return err
		}
		c.base = measured{base.Cycles, base.H.L2Stats.Misses}
		c.hw = measured{hw.Cycles, hw.H.L2Stats.Misses}
		c.both = measured{both.TotalCycles(), both.H.L2Stats.Misses}
		return nil
	})
	return cands, err
}

// Fig5 reproduces Figure 5: Pentium 4 with hardware prefetchers enabled;
// bars normalized to native execution with no prefetching.
func Fig5(names []string) (*PrefetchResult, error) {
	cands, err := hwPrefetchCandidates(names)
	if err != nil {
		return nil, err
	}
	res := &PrefetchResult{
		Title: "Figure 5: running time on Pentium 4, HW prefetch enabled (normalized to native, no prefetching)",
		Rows:  make([]PrefetchRow, len(cands)),
	}
	for i, c := range cands {
		base := float64(c.base.cycles)
		res.Rows[i] = PrefetchRow{
			Name:     c.w.Name,
			Inserted: c.inserted,
			UMISW:    float64(c.sw.cycles) / base,
			HWOnly:   float64(c.hw.cycles) / base,
			UMISWHW:  float64(c.both.cycles) / base,
		}
	}
	res.GeoSW = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.UMISW })
	res.GeoHW = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.HWOnly })
	res.GeoBoth = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.UMISWHW })
	return res, nil
}

// Fig6 reproduces Figure 6: L2 misses on the Pentium 4 under software,
// hardware, and combined prefetching, normalized to native execution with
// no prefetching. Lower is better; the combination should reduce misses
// more than either scheme alone (the paper's cumulative-coverage finding).
func Fig6(names []string) (*PrefetchResult, error) {
	cands, err := hwPrefetchCandidates(names)
	if err != nil {
		return nil, err
	}
	res := &PrefetchResult{
		Title: "Figure 6: L2 misses on Pentium 4 (normalized to native, no prefetching)",
	}
	for _, c := range cands {
		baseMiss := float64(c.base.l2Misses)
		if baseMiss == 0 {
			continue
		}
		res.Rows = append(res.Rows, PrefetchRow{
			Name:     c.w.Name,
			MissSW:   float64(c.sw.l2Misses) / baseMiss,
			MissHW:   float64(c.hw.l2Misses) / baseMiss,
			MissBoth: float64(c.both.l2Misses) / baseMiss,
		})
	}
	res.GeoSW = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.MissSW })
	res.GeoHW = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.MissHW })
	res.GeoBoth = geoMean(res.Rows, func(r PrefetchRow) float64 { return r.MissBoth })
	return res, nil
}

func (r *PrefetchResult) String() string {
	if len(r.Rows) == 0 {
		return r.Title + ": no benchmarks with prefetching opportunities\n"
	}
	switch {
	case len(r.Rows) > 0 && r.Rows[0].MissSW > 0:
		t := stats.NewTable(r.Title, "Benchmark", "SW misses", "HW misses", "SW+HW misses")
		for _, row := range r.Rows {
			t.AddRow(row.Name, fmt.Sprintf("%.3f", row.MissSW),
				fmt.Sprintf("%.3f", row.MissHW), fmt.Sprintf("%.3f", row.MissBoth))
		}
		t.AddRow("geomean", fmt.Sprintf("%.3f", r.GeoSW),
			fmt.Sprintf("%.3f", r.GeoHW), fmt.Sprintf("%.3f", r.GeoBoth))
		return t.String()
	case len(r.Rows) > 0 && r.Rows[0].HWOnly > 0:
		t := stats.NewTable(r.Title, "Benchmark", "#pf", "UMI+SW", "HW only", "SW+HW")
		for _, row := range r.Rows {
			t.AddRow(row.Name, fmt.Sprint(row.Inserted), fmt.Sprintf("%.3f", row.UMISW),
				fmt.Sprintf("%.3f", row.HWOnly), fmt.Sprintf("%.3f", row.UMISWHW))
		}
		t.AddRow("geomean", "", fmt.Sprintf("%.3f", r.GeoSW),
			fmt.Sprintf("%.3f", r.GeoHW), fmt.Sprintf("%.3f", r.GeoBoth))
		return t.String()
	default:
		t := stats.NewTable(r.Title, "Benchmark", "#pf", "UMI only", "UMI+SW prefetch")
		for _, row := range r.Rows {
			t.AddRow(row.Name, fmt.Sprint(row.Inserted),
				fmt.Sprintf("%.3f", row.UMIOnly), fmt.Sprintf("%.3f", row.UMISW))
		}
		t.AddRow("geomean", "", fmt.Sprintf("%.3f", r.GeoUMI), fmt.Sprintf("%.3f", r.GeoSW))
		return t.String()
	}
}
