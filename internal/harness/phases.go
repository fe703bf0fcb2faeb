package harness

import (
	"fmt"
	"strings"

	"umi/internal/umi"
)

// The phases experiment is the profile-history layer's figure: per
// workload, the windowed evolution of memory behaviour — each analyzer
// invocation's miss ratio, delinquent-set churn (Jaccard similarity
// against the previous window), and working-set size, with detected phase
// transitions marked. The timeline figure shows when the analyzer ran;
// this one shows what changed between runs, which is the signal online
// phase-aware optimization would key on (Shen et al.'s locality phases).
// Everything derives from modelled state, so the render is golden-testable.

// BenchmarkPhases is one workload's windowed history.
type BenchmarkPhases struct {
	Name         string
	Total        uint64 // windows recorded (== analyzer invocations)
	PhaseChanges uint64
	Windows      []struct {
		Invocation int
		Cycles     uint64
		WindowMiss float64
		CumMiss    float64
		Delinquent int
		Jaccard    float64
		WSLines    int
		Phase      bool
	}
}

// PhasesResult is the umibench "phases" experiment.
type PhasesResult struct {
	Rows []BenchmarkPhases
}

// Phases runs the selected workloads (nil = the paper's 32) under the
// standard configuration and collects each run's profile history.
func Phases(names []string) (*PhasesResult, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &PhasesResult{Rows: make([]BenchmarkPhases, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		// The ws-lines column reads a WorkingSet consumer.
		run, err := RunUMI(ws[i], P4, UMIParams(P4), false, false, func(r *UMIRun) {
			r.Sys.AddConsumer(umi.NewWorkingSet(P4.L2.LineSize))
		})
		if err != nil {
			return err
		}
		hv := run.History
		bp := BenchmarkPhases{
			Name:         ws[i].Name,
			Total:        hv.Total,
			PhaseChanges: hv.PhaseChanges,
		}
		for _, w := range hv.Windows {
			bp.Windows = append(bp.Windows, struct {
				Invocation int
				Cycles     uint64
				WindowMiss float64
				CumMiss    float64
				Delinquent int
				Jaccard    float64
				WSLines    int
				Phase      bool
			}{w.Invocation, w.Cycles, w.WindowMissRatio, w.CumMissRatio,
				w.Delinquent, w.Jaccard, w.WSLines, w.PhaseChange})
		}
		res.Rows[i] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the figure: per benchmark, one line per window with a bar
// tracking the window miss ratio and *PHASE* markers on transitions.
// Deterministic — every column derives from modelled state.
func (r *PhasesResult) String() string {
	if len(r.Rows) == 0 {
		return "Phases: no benchmarks selected\n"
	}
	var sb strings.Builder
	sb.WriteString("Phases: windowed miss-ratio and delinquent-set churn per analyzer invocation\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "\n%s (%d windows, %d phase changes):\n",
			row.Name, row.Total, row.PhaseChanges)
		if len(row.Windows) == 0 {
			sb.WriteString("  no analyzer invocations\n")
			continue
		}
		maxMiss := 0.0
		for _, w := range row.Windows {
			if w.WindowMiss > maxMiss {
				maxMiss = w.WindowMiss
			}
		}
		fmt.Fprintf(&sb, "  %4s  %12s  %8s  %8s  %5s  %7s  %8s\n",
			"inv", "cycles", "win-miss", "cum-miss", "|P|", "jaccard", "ws-lines")
		for _, w := range row.Windows {
			bar := 0
			if maxMiss > 0 {
				bar = int(w.WindowMiss * barWidth / maxMiss)
			}
			line := fmt.Sprintf("  %4d  %12d  %8.4f  %8.4f  %5d  %7.3f  %8d  %s",
				w.Invocation, w.Cycles, w.WindowMiss, w.CumMiss,
				w.Delinquent, w.Jaccard, w.WSLines, strings.Repeat("#", bar))
			if w.Phase {
				line = strings.TrimRight(line, " ") + "  *PHASE*"
			}
			sb.WriteString(strings.TrimRight(line, " ") + "\n")
		}
	}
	return sb.String()
}
