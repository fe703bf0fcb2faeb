package harness

import (
	"fmt"
	"sort"
	"strings"

	"umi/internal/cachegrind"
	"umi/internal/counters"
	"umi/internal/stats"
	"umi/internal/workloads"
)

// ---------------------------------------------------------------------
// Table 1 — running time for a range of HW counter sample sizes vs UMI.
// ---------------------------------------------------------------------

// Table1Row is one sampling configuration.
type Table1Row struct {
	SampleSize  uint64 // 0 = native, no counter
	Cycles      uint64
	SlowdownPct float64
}

// Table1Result reproduces Table 1: counter-sampling overhead on a
// memory-intensive workload, against UMI's overhead on the same workload.
type Table1Result struct {
	Workload    string
	Events      uint64 // countable events (L1 misses)
	Rows        []Table1Row
	UMICycles   uint64
	UMISlowPct  float64
	NativeCycle uint64
}

// Table1 reproduces Table 1 on the mcf stand-in (the paper's choice: "one
// of the more memory intensive applications"). The native cycles and L1
// misses are the UMI run's guest side.
func Table1() (*Table1Result, error) {
	w, ok := workloads.ByName("181.mcf")
	if !ok {
		return nil, fmt.Errorf("harness: mcf workload missing")
	}
	umiRun, err := RunUMI(w, P4, UMIParams(P4), false, false)
	if err != nil {
		return nil, err
	}
	native, events := umiRun.RT.M.Cycles, umiRun.H.L1Stats.Misses
	model := counters.DefaultSamplingModel
	res := &Table1Result{Workload: w.Name, Events: events, NativeCycle: native}
	res.Rows = append(res.Rows, Table1Row{SampleSize: 0, Cycles: native})
	for _, size := range []uint64{10, 100, 1_000, 10_000, 100_000, 1_000_000} {
		res.Rows = append(res.Rows, Table1Row{
			SampleSize:  size,
			Cycles:      model.Time(native, events, size),
			SlowdownPct: model.SlowdownPct(native, events, size),
		})
	}
	res.UMICycles = umiRun.TotalCycles()
	res.UMISlowPct = 100 * (float64(res.UMICycles)/float64(native) - 1)
	return res, nil
}

func (r *Table1Result) String() string {
	t := stats.NewTable(
		fmt.Sprintf("Table 1: HW counter sampling overhead on %s (events=%d)", r.Workload, r.Events),
		"Sample Size", "Cycles", "% Slowdown")
	t.AddRow("0 (native)", fmt.Sprint(r.NativeCycle), "-")
	t.AddRow("(UMI)", fmt.Sprint(r.UMICycles), fmt.Sprintf("%.2f", r.UMISlowPct))
	for _, row := range r.Rows[1:] {
		t.AddRow(fmt.Sprint(row.SampleSize), fmt.Sprint(row.Cycles),
			fmt.Sprintf("%.2f", row.SlowdownPct))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Table 2 — qualitative tradeoffs (reprinted).
// ---------------------------------------------------------------------

// Table2 returns the paper's qualitative comparison of profiling
// methodologies.
func Table2() string {
	t := stats.NewTable("Table 2: tradeoffs in profiling methodologies",
		"", "Simulators", "HW counters", "UMI")
	t.AddRow("Overhead", "very high", "very low", "low")
	t.AddRow("Detail Level", "very high", "very low", "high")
	t.AddRow("Versatility", "very high", "very low", "high")
	return t.String()
}

// ---------------------------------------------------------------------
// Table 3 — profiling statistics (no sampling reinforcement).
// ---------------------------------------------------------------------

// Table3Row is one benchmark's profiling statistics.
type Table3Row struct {
	Name         string
	StaticLoads  int
	StaticStores int
	ProfiledOps  int
	ProfiledPct  float64
	Profiles     int
	Invocations  int
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows   []Table3Row
	AvgPct float64
}

// Table3 runs every selected benchmark under UMI without sample-based
// reinforcement (as the paper's Table 3 does) and reports instrumentation
// statistics. names == nil selects the paper's 32 benchmarks.
func Table3(names []string) (*Table3Result, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	cfg := UMIParams(P4)
	cfg.UseSampling = false
	res := &Table3Result{Rows: make([]Table3Row, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		run, err := RunUMI(w, P4, cfg, false, false)
		if err != nil {
			return err
		}
		p := w.Program()
		loads, stores := p.StaticLoads(), p.StaticStores()
		res.Rows[i] = Table3Row{
			Name:         w.Name,
			StaticLoads:  loads,
			StaticStores: stores,
			ProfiledOps:  run.Report.ProfiledOps,
			ProfiledPct:  100 * float64(run.Report.ProfiledOps) / float64(loads+stores),
			Profiles:     run.Report.ProfilesCollected,
			Invocations:  run.Report.AnalyzerInvocations,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pctSum float64
	for _, row := range res.Rows {
		pctSum += row.ProfiledPct
	}
	if len(res.Rows) > 0 {
		res.AvgPct = pctSum / float64(len(res.Rows))
	}
	return res, nil
}

func (r *Table3Result) String() string {
	if len(r.Rows) == 0 {
		return "Table 3: no benchmarks selected\n"
	}
	t := stats.NewTable("Table 3: profiling statistics (no sampling reinforcement)",
		"Benchmark", "Static Loads", "Static Stores", "Profiled Ops", "% Profiled",
		"Profiles", "Analyzer Invocations")
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprint(row.StaticLoads), fmt.Sprint(row.StaticStores),
			fmt.Sprint(row.ProfiledOps), fmt.Sprintf("%.2f%%", row.ProfiledPct),
			fmt.Sprint(row.Profiles), fmt.Sprint(row.Invocations))
	}
	return t.String() + fmt.Sprintf("Average %% profiled: %.2f%%\n", r.AvgPct)
}

// ---------------------------------------------------------------------
// Tables 4 and 5 — coefficients of correlation.
// ---------------------------------------------------------------------

// CorrelationCell holds one group's correlation and sample size.
type CorrelationCell struct {
	Group string
	N     int
	R     float64
}

// Table4Result reproduces Table 4: correlations between simulated and
// hardware-measured L2 miss ratios per benchmark group, for the Pentium 4
// with and without hardware prefetching and for the AMD K7.
type Table4Result struct {
	CachegrindNoPF []CorrelationCell // vs P4 counters, prefetch off
	CachegrindPF   []CorrelationCell // vs P4 counters, prefetch on
	UMINoPF        []CorrelationCell
	UMIPF          []CorrelationCell
	UMIK7          []CorrelationCell
	// PerBench records the underlying ratios for inspection.
	PerBench []Table4Bench
}

// Table4Bench carries one benchmark's miss ratios from every measurement
// source.
type Table4Bench struct {
	Name       string
	Suite      workloads.Suite
	HWNoPF     float64 // P4 counters, prefetch disabled
	HWPF       float64 // P4 counters, prefetch enabled
	HWK7       float64 // K7 counters
	Cachegrind float64
	UMISim     float64 // UMI mini-simulation (P4 geometry)
	UMISimK7   float64 // UMI mini-simulation (K7 geometry)
}

func groupCorrelations(rows []Table4Bench, sim func(Table4Bench) float64, hw func(Table4Bench) float64,
	groups []workloads.Suite) []CorrelationCell {
	cells := make([]CorrelationCell, 0, len(groups)+1)
	var allS, allH []float64
	for _, g := range groups {
		var s, h []float64
		for _, r := range rows {
			if r.Suite != g {
				continue
			}
			s = append(s, sim(r))
			h = append(h, hw(r))
		}
		allS = append(allS, s...)
		allH = append(allH, h...)
		cells = append(cells, CorrelationCell{Group: g.String(), N: len(s), R: stats.Correlation(s, h)})
	}
	cells = append(cells, CorrelationCell{Group: "All", N: len(allS), R: stats.Correlation(allS, allH)})
	return cells
}

// Table4 reproduces Table 4 over the selected benchmarks (nil = the
// paper's 32). Each UMI run also yields its platform's hardware counters,
// and Cachegrind rides the Pentium 4 one; only the prefetching Pentium 4
// has no UMI run to read, so it runs natively.
func Table4(names []string) (*Table4Result, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{PerBench: make([]Table4Bench, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		cg := cachegrind.NewP4()
		uP4, err := RunUMI(w, P4, UMIParams(P4), false, false, func(r *UMIRun) { r.RT.M.RefHook = cg.Ref })
		if err != nil {
			return err
		}
		nPF, err := RunNative(w, P4, true)
		if err != nil {
			return err
		}
		uK7, err := RunUMI(w, K7, UMIParams(K7), false, false)
		if err != nil {
			return err
		}
		res.PerBench[i] = Table4Bench{
			Name: w.Name, Suite: w.Suite,
			HWNoPF:     uP4.H.L2Stats.MissRatio(),
			HWPF:       nPF.H.L2Stats.MissRatio(),
			HWK7:       uK7.H.L2Stats.MissRatio(),
			Cachegrind: cg.L2MissRatio(),
			UMISim:     uP4.Report.SimMissRatio,
			UMISimK7:   uK7.Report.SimMissRatio,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	groups := []workloads.Suite{workloads.CFP2000, workloads.CINT2000, workloads.Olden}
	simCG := func(r Table4Bench) float64 { return r.Cachegrind }
	simUMI := func(r Table4Bench) float64 { return r.UMISim }
	simUMIK7 := func(r Table4Bench) float64 { return r.UMISimK7 }
	res.CachegrindNoPF = groupCorrelations(res.PerBench, simCG, func(r Table4Bench) float64 { return r.HWNoPF }, groups)
	res.CachegrindPF = groupCorrelations(res.PerBench, simCG, func(r Table4Bench) float64 { return r.HWPF }, groups)
	res.UMINoPF = groupCorrelations(res.PerBench, simUMI, func(r Table4Bench) float64 { return r.HWNoPF }, groups)
	res.UMIPF = groupCorrelations(res.PerBench, simUMI, func(r Table4Bench) float64 { return r.HWPF }, groups)
	res.UMIK7 = groupCorrelations(res.PerBench, simUMIK7, func(r Table4Bench) float64 { return r.HWK7 }, groups)
	return res, nil
}

func cellsToRow(cells []CorrelationCell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprintf("%.3f", c.R)
	}
	return out
}

func (r *Table4Result) String() string {
	header := []string{"Platform / Tool"}
	for _, c := range r.UMINoPF {
		header = append(header, c.Group)
	}
	t := stats.NewTable("Table 4: coefficients of correlation (simulated vs HW-measured L2 miss ratios)", header...)
	t.AddRow(append([]string{"P4 no-prefetch / Cachegrind"}, cellsToRow(r.CachegrindNoPF)...)...)
	t.AddRow(append([]string{"P4 prefetch    / Cachegrind"}, cellsToRow(r.CachegrindPF)...)...)
	t.AddRow(append([]string{"P4 no-prefetch / UMI"}, cellsToRow(r.UMINoPF)...)...)
	t.AddRow(append([]string{"P4 prefetch    / UMI"}, cellsToRow(r.UMIPF)...)...)
	t.AddRow(append([]string{"AMD K7         / UMI"}, cellsToRow(r.UMIK7)...)...)
	return t.String()
}

// Table5Result reproduces Table 5: SPEC2006 correlations on the Pentium 4
// with hardware prefetching.
type Table5Result struct {
	Cells    []CorrelationCell
	PerBench []Table4Bench
}

// Table5 runs the CPU2006 subset.
func Table5() (*Table5Result, error) {
	var names []string
	for _, w := range workloads.BySuite(workloads.CFP2006) {
		names = append(names, w.Name)
	}
	for _, w := range workloads.BySuite(workloads.CINT2006) {
		names = append(names, w.Name)
	}
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{PerBench: make([]Table4Bench, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		u, err := RunUMI(w, P4, UMIParams(P4), true, false)
		if err != nil {
			return err
		}
		res.PerBench[i] = Table4Bench{
			Name: w.Name, Suite: w.Suite,
			HWPF:   u.H.L2Stats.MissRatio(),
			UMISim: u.Report.SimMissRatio,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	groups := []workloads.Suite{workloads.CFP2006, workloads.CINT2006}
	res.Cells = groupCorrelations(res.PerBench,
		func(r Table4Bench) float64 { return r.UMISim },
		func(r Table4Bench) float64 { return r.HWPF }, groups)
	// Rename the aggregate to match the paper's column.
	res.Cells[len(res.Cells)-1].Group = "SPEC2006"
	return res, nil
}

func (r *Table5Result) String() string {
	header := []string{"Platform"}
	for _, c := range r.Cells {
		header = append(header, c.Group)
	}
	t := stats.NewTable("Table 5: SPEC2006 coefficients of correlation", header...)
	t.AddRow(append([]string{"P4 with HW prefetching / UMI"}, cellsToRow(r.Cells)...)...)
	return t.String()
}

// ---------------------------------------------------------------------
// Table 6 — quality of delinquent load prediction.
// ---------------------------------------------------------------------

// Table6Row is one benchmark's prediction-quality record.
type Table6Row struct {
	Name           string
	L2MissRatio    float64 // Cachegrind-measured
	P              int     // |P|: loads UMI predicted delinquent
	PToTotalLoads  float64 // |P| / static loads
	PMissCoverage  float64 // misses covered by P
	C              int     // |C|: 90%-coverage set from Cachegrind
	PandC          int     // |P ∩ C|
	PandCMissCover float64
	Recall         float64 // |P∩C| / |C|
	FalsePositives float64 // |P-C| / |P|
}

// Table6Result reproduces Table 6 with the paper's three average rows.
type Table6Result struct {
	Rows    []Table6Row
	AvgLow  Table6Row // miss ratio < 1%
	AvgHigh Table6Row // miss ratio >= 1%
	AvgAll  Table6Row
}

// Table6 evaluates delinquent-load prediction quality against the
// Cachegrind reference, riding each UMI run, on the selected benchmarks
// (nil = the paper's 32), with x = 90% delinquency coverage.
func Table6(names []string) (*Table6Result, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &Table6Result{Rows: make([]Table6Row, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		cg := cachegrind.NewP4()
		run, err := RunUMI(w, P4, UMIParams(P4), false, false, func(r *UMIRun) { r.RT.M.RefHook = cg.Ref })
		if err != nil {
			return err
		}
		c := cg.DelinquentSet(0.90)
		p := run.Report.Delinquent
		inter := stats.Intersection(p, c)
		res.Rows[i] = Table6Row{
			Name:           w.Name,
			L2MissRatio:    cg.L2MissRatio(),
			P:              len(p),
			PToTotalLoads:  float64(len(p)) / float64(w.Program().StaticLoads()),
			PMissCoverage:  cg.MissCoverage(p),
			C:              len(c),
			PandC:          len(inter),
			PandCMissCover: cg.MissCoverage(inter),
			Recall:         stats.Recall(p, c),
			FalsePositives: stats.FalsePositiveRatio(p, c),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AvgLow = averageRows("Average (miss ratio < 1%)", res.Rows, func(r Table6Row) bool {
		return r.L2MissRatio < 0.01
	})
	res.AvgHigh = averageRows("Average (miss ratio >= 1%)", res.Rows, func(r Table6Row) bool {
		return r.L2MissRatio >= 0.01
	})
	res.AvgAll = averageRows("Average (all benchmarks)", res.Rows, func(Table6Row) bool { return true })
	return res, nil
}

func averageRows(name string, rows []Table6Row, keep func(Table6Row) bool) Table6Row {
	var out Table6Row
	out.Name = name
	n := 0
	for _, r := range rows {
		if !keep(r) {
			continue
		}
		n++
		out.P += r.P
		out.C += r.C
		out.PandC += r.PandC
		out.PToTotalLoads += r.PToTotalLoads
		out.PMissCoverage += r.PMissCoverage
		out.PandCMissCover += r.PandCMissCover
		out.Recall += r.Recall
		out.FalsePositives += r.FalsePositives
	}
	if n == 0 {
		return out
	}
	out.P /= n
	out.C /= n
	out.PandC /= n
	out.PToTotalLoads /= float64(n)
	out.PMissCoverage /= float64(n)
	out.PandCMissCover /= float64(n)
	out.Recall /= float64(n)
	out.FalsePositives /= float64(n)
	return out
}

func table6Cells(r Table6Row) []string {
	ratio := fmt.Sprintf("%.2f%%", 100*r.L2MissRatio)
	if r.L2MissRatio == 0 && r.P == 0 && r.C == 0 {
		ratio = "-"
	}
	if strings.HasPrefix(r.Name, "Average") {
		ratio = "-"
	}
	return []string{
		r.Name,
		ratio,
		fmt.Sprint(r.P),
		fmt.Sprintf("%.2f%%", 100*r.PToTotalLoads),
		fmt.Sprintf("%.2f%%", 100*r.PMissCoverage),
		fmt.Sprint(r.C),
		fmt.Sprint(r.PandC),
		fmt.Sprintf("%.2f%%", 100*r.PandCMissCover),
		fmt.Sprintf("%.2f%%", 100*r.Recall),
		fmt.Sprintf("%.2f%%", 100*r.FalsePositives),
	}
}

func (r *Table6Result) String() string {
	if len(r.Rows) == 0 {
		return "Table 6: no benchmarks selected\n"
	}
	t := stats.NewTable("Table 6: quality of delinquent load prediction (x = 90%)",
		"Benchmark", "L2 Miss Ratio", "|P|", "|P|/loads", "P Coverage",
		"|C|", "|P^C|", "P^C Coverage", "Recall", "False Pos")
	for _, row := range r.Rows {
		t.AddRow(table6Cells(row)...)
	}
	t.AddRow(table6Cells(r.AvgLow)...)
	t.AddRow(table6Cells(r.AvgHigh)...)
	t.AddRow(table6Cells(r.AvgAll)...)
	return t.String()
}

// SortedPCs renders a delinquent set deterministically (test helper).
func SortedPCs(set map[uint64]bool) string {
	pcs := make([]uint64, 0, len(set))
	for pc := range set {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var sb strings.Builder
	for _, pc := range pcs {
		fmt.Fprintf(&sb, "%#x ", pc)
	}
	return sb.String()
}
