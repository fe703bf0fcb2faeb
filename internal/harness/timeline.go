package harness

import (
	"fmt"
	"strings"

	"umi/internal/tracelog"
)

// The timeline experiment is the event-tracing layer's figure: the
// evolution of the delinquent-load set over a run, one row per analyzer
// invocation, read back from the structured event log every harness run
// records. The paper presents P as a single final set; this view shows
// how the runtime converged on it — how many invocations, at which
// modelled cycles, simulating how many references each — which is the
// story the adaptive-threshold policy (§4.2) is about. Everything here
// derives from the modelled cycle clock, so the render is golden-testable.

// InvocationPoint is one analyzer invocation as recorded by its
// analyzer.end span event.
type InvocationPoint struct {
	Cycles     uint64 // modelled cycle stamp at invocation start
	DurCycles  uint64 // modelled analysis cost charged to the guest
	Refs       uint64 // references mini-simulated by this invocation
	Misses     uint64 // post-warmup misses observed by this invocation
	Delinquent uint64 // |P| after this invocation (cumulative)
}

// BenchmarkTimeline is one workload's invocation history.
type BenchmarkTimeline struct {
	Name   string
	Events uint64 // lifecycle events the run emitted
	Drops  uint64 // events the ring discarded (0 at default capacity)
	Points []InvocationPoint
}

// TimelineResult is the umibench "timeline" experiment.
type TimelineResult struct {
	Rows []BenchmarkTimeline
}

// Timeline runs the selected workloads (nil = the paper's 32) under the
// standard configuration and extracts each run's analyzer-invocation
// history from the event log.
func Timeline(names []string) (*TimelineResult, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &TimelineResult{Rows: make([]BenchmarkTimeline, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		run, err := RunUMI(ws[i], P4, UMIParams(P4), false, false)
		if err != nil {
			return err
		}
		elog := run.Sys.EventLog()
		bt := BenchmarkTimeline{
			Name:   ws[i].Name,
			Events: elog.Total(),
			Drops:  elog.Drops(),
		}
		for _, e := range tracelog.Sorted(elog.Events()) {
			if e.Type != tracelog.EvAnalyzerEnd {
				continue
			}
			bt.Points = append(bt.Points, InvocationPoint{
				Cycles: e.Cycles, DurCycles: e.Dur,
				Refs: e.Arg1, Misses: e.Arg2, Delinquent: e.Arg3,
			})
		}
		res.Rows[i] = bt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// barWidth is the |P| bar's full scale in the rendered figure.
const barWidth = 30

// String renders the figure: per benchmark, one line per analyzer
// invocation with a bar tracking |P| against the run's final value.
// Deterministic — every column derives from the modelled cycle clock.
func (r *TimelineResult) String() string {
	if len(r.Rows) == 0 {
		return "Timeline: no benchmarks selected\n"
	}
	var sb strings.Builder
	sb.WriteString("Timeline: delinquent-set evolution per analyzer invocation\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "\n%s (%d events", row.Name, row.Events)
		if row.Drops > 0 {
			fmt.Fprintf(&sb, ", %d dropped", row.Drops)
		}
		sb.WriteString("):\n")
		if len(row.Points) == 0 {
			sb.WriteString("  no analyzer invocations\n")
			continue
		}
		maxP := uint64(1)
		for _, p := range row.Points {
			if p.Delinquent > maxP {
				maxP = p.Delinquent
			}
		}
		fmt.Fprintf(&sb, "  %4s  %12s  %10s  %9s  %9s  %5s\n",
			"inv", "cycles", "analysis", "refs", "misses", "|P|")
		for i, p := range row.Points {
			line := fmt.Sprintf("  %4d  %12d  %10d  %9d  %9d  %5d  %s",
				i+1, p.Cycles, p.DurCycles, p.Refs, p.Misses, p.Delinquent,
				strings.Repeat("#", int(p.Delinquent*barWidth/maxP)))
			sb.WriteString(strings.TrimRight(line, " ") + "\n")
		}
	}
	return sb.String()
}
