package harness

import (
	"fmt"

	"umi/internal/stats"
	"umi/internal/workloads"
)

// LinuxAppsRow is one application's measurement (§6.3).
type LinuxAppsRow struct {
	Name        string
	HWMissRatio float64
	UMISimRatio float64
	OverheadPct float64
}

// LinuxAppsResult reproduces the §6.3 observation: commonly used Linux
// desktop/server applications have very low hardware-measured miss ratios,
// and UMI profiles them with the same low overhead as the benchmarks.
type LinuxAppsResult struct {
	Rows []LinuxAppsRow
}

// LinuxApps profiles the §6.3 application stand-ins; the hardware miss
// ratio and native time are each UMI run's guest side.
func LinuxApps() (*LinuxAppsResult, error) {
	res := &LinuxAppsResult{}
	for _, w := range workloads.BySuite(workloads.LinuxApps) {
		run, err := RunUMI(w, P4, UMIParams(P4), true, false)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, LinuxAppsRow{
			Name:        w.Name,
			HWMissRatio: run.H.L2Stats.MissRatio(),
			UMISimRatio: run.Report.SimMissRatio,
			OverheadPct: 100 * (float64(run.TotalCycles())/float64(run.RT.M.Cycles) - 1),
		})
	}
	return res, nil
}

func (r *LinuxAppsResult) String() string {
	t := stats.NewTable("Linux applications (§6.3): HW miss ratios are very low",
		"Application", "HW L2 miss ratio", "UMI simulated", "UMI overhead")
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.3f%%", 100*row.HWMissRatio),
			fmt.Sprintf("%.3f%%", 100*row.UMISimRatio),
			fmt.Sprintf("%.1f%%", row.OverheadPct))
	}
	return t.String()
}
