package harness

import (
	"fmt"
	"strings"
	"time"

	"umi/internal/metrics"
	"umi/internal/stats"
	"umi/internal/umi"
)

// The self-overhead experiment cross-checks the paper reproduction's
// modelled overhead stream against the runtime's own measured cost. Every
// other table trusts the cycle model (InstrumentCost, AnalyzerPerRef, ...);
// this one puts the model next to the metrics layer's live accounting —
// filter rates, profile fills, analysis latency — so a change that cheapens
// the model without cheapening the work (or vice versa) shows up as the two
// columns drifting apart.

// SelfOverheadRow is one workload's modelled-vs-measured accounting.
type SelfOverheadRow struct {
	Name string

	// Deterministic quantities (modelled cycles and event counts).
	NativeCycles    uint64
	UMICycles       uint64
	ModelledOvhdPct float64 // (UMI - native) / native
	TracesSeen      uint64
	Instrumented    uint64  // instrumentation events
	FilterRatePct   float64 // candidates filtered / candidates (§4.1)
	ProfileFills    uint64
	GlobalFills     uint64
	Invocations     uint64
	SimulatedRefs   uint64
	// Event-timeline accounting: how many lifecycle events the run
	// emitted and how many the ring discarded. Both follow the modelled
	// execution alone (the harness runs the inline analyzer path), so
	// they belong to the deterministic render.
	Events uint64
	Drops  uint64

	// Measured quantities (wall clock; vary run to run, excluded from the
	// deterministic render).
	Latency metrics.HistogramValue // per-invocation analysis latency, ns
	Wall    time.Duration          // guest run wall time (events/sec denominator)
}

// SelfOverheadResult is the umibench "self-overhead" experiment.
type SelfOverheadResult struct {
	Rows []SelfOverheadRow
}

// SelfOverhead runs the selected workloads (nil = the paper's 32) under
// the standard UMI configuration and collects both sides of the overhead
// story: the modelled cycle stream the tables report, and the metrics
// layer's event counts and measured analysis latency. The native time is
// the run's guest side.
func SelfOverhead(names []string) (*SelfOverheadResult, error) {
	ws, err := selectWorkloads(names)
	if err != nil {
		return nil, err
	}
	res := &SelfOverheadResult{Rows: make([]SelfOverheadRow, len(ws))}
	err = forEachIndexed(len(ws), func(i int) error {
		w := ws[i]
		run, err := RunUMI(w, P4, UMIParams(P4), false, false)
		if err != nil {
			return err
		}
		snap, elog := run.Sys.MetricsSnapshot(), run.Sys.EventLog()
		row := SelfOverheadRow{
			Name:          w.Name,
			NativeCycles:  run.RT.M.Cycles,
			UMICycles:     run.TotalCycles(),
			TracesSeen:    snap.Counter("umi.traces.seen"),
			Instrumented:  snap.Counter("umi.traces.instrumented"),
			ProfileFills:  snap.Counter("umi.profiles.fills"),
			GlobalFills:   snap.Counter("umi.profiles.global_fills"),
			Invocations:   snap.Counter("umi.analyzer.invocations"),
			SimulatedRefs: snap.Counter("umi.analyzer.refs"),
			Events:        elog.Total(),
			Drops:         elog.Drops(),
			Latency:       snap.Histogram("umi.analyzer.latency_ns"),
			Wall:          run.Wall,
		}
		row.ModelledOvhdPct = 100 * (float64(row.UMICycles)/float64(row.NativeCycles) - 1)
		if rate, ok := umi.FilterRate(snap); ok {
			row.FilterRatePct = 100 * rate
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the deterministic half of the experiment: modelled
// overhead and event counts only, so the output is byte-stable across runs
// and machines (golden-testable). Measured latency lives in LiveString.
func (r *SelfOverheadResult) String() string {
	if len(r.Rows) == 0 {
		return "Self-overhead: no workloads selected\n"
	}
	t := stats.NewTable("Self-overhead: modelled UMI cost vs runtime event counts",
		"Benchmark", "Modelled Ovhd", "Traces", "Instrumented", "Filter Rate",
		"Fills (prof/glob)", "Invocations", "Sim Refs", "Events (drops)")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.2f%%", row.ModelledOvhdPct),
			fmt.Sprint(row.TracesSeen),
			fmt.Sprint(row.Instrumented),
			fmt.Sprintf("%.1f%%", row.FilterRatePct),
			fmt.Sprintf("%d/%d", row.ProfileFills, row.GlobalFills),
			fmt.Sprint(row.Invocations),
			fmt.Sprint(row.SimulatedRefs),
			fmt.Sprintf("%d (%d)", row.Events, row.Drops))
	}
	return t.String()
}

// LiveString renders the measured half: wall-clock analysis latency and
// event-tracing throughput per workload. Nondeterministic by nature —
// never golden-compare it.
func (r *SelfOverheadResult) LiveString() string {
	var sb strings.Builder
	sb.WriteString("Measured analysis latency (wall clock, varies run to run):\n")
	for _, row := range r.Rows {
		if row.Latency.Count == 0 {
			fmt.Fprintf(&sb, "  %-16s no analyzer invocations\n", row.Name)
			continue
		}
		fmt.Fprintf(&sb, "  %-16s n=%d mean=%.0fns p50=%dns p99=%dns max=%dns\n",
			row.Name, row.Latency.Count, row.Latency.Mean(),
			row.Latency.Quantile(0.50), row.Latency.Quantile(0.99), row.Latency.Max)
	}
	sb.WriteString("Event tracing throughput (wall clock, varies run to run):\n")
	for _, row := range r.Rows {
		if row.Wall <= 0 {
			fmt.Fprintf(&sb, "  %-16s no wall-clock measurement\n", row.Name)
			continue
		}
		rate := float64(row.Events) / row.Wall.Seconds()
		fmt.Fprintf(&sb, "  %-16s %d events in %v (%.0f events/sec, %d dropped)\n",
			row.Name, row.Events, row.Wall.Round(time.Millisecond), rate, row.Drops)
	}
	return sb.String()
}
