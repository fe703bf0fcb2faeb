// Package harness drives the reproduction's experiments: one driver per
// table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). Every driver returns a typed result with a
// String() rendering that mirrors the paper's presentation, so
// cmd/umibench and the bench suite can regenerate any artifact.
package harness

import (
	"fmt"
	"time"

	"umi/internal/cache"
	"umi/internal/cachegrind"
	"umi/internal/metrics"
	"umi/internal/prefetch"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/workloads"
)

// MaxInstrs bounds any single simulated run; the workloads retire a few
// million instructions, so hitting this indicates a bug.
const MaxInstrs = 200_000_000

// Platform describes one evaluation machine from §6.
type Platform struct {
	Name          string
	L2            cache.Config
	HasHWPrefetch bool
	newHierarchy  func(hwPrefetch bool) *cache.Hierarchy
}

// Hierarchy builds a fresh memory system for the platform.
func (p *Platform) Hierarchy(hwPrefetch bool) *cache.Hierarchy {
	return p.newHierarchy(hwPrefetch && p.HasHWPrefetch)
}

// The two evaluation platforms.
var (
	P4 = &Platform{Name: "Pentium 4", L2: cache.P4L2, HasHWPrefetch: true,
		newHierarchy: cache.NewP4}
	K7 = &Platform{Name: "AMD K7", L2: cache.K7L2, HasHWPrefetch: false,
		newHierarchy: func(bool) *cache.Hierarchy { return cache.NewK7() }}
)

// UMIParams returns the harness's standard UMI configuration for a
// platform. The paper's sampling constants assume minutes-long SPEC runs;
// these are the same policies rescaled to the workloads' few-million
// instruction budgets (DESIGN.md records the substitution).
func UMIParams(p *Platform) umi.Config {
	cfg := umi.DefaultConfig(p.L2)
	cfg.SamplePeriod = 2_000
	cfg.FrequencyThreshold = 8
	cfg.ReinstrumentGap = 100_000
	return cfg
}

// NativeResult is one plain-hardware run.
type NativeResult struct {
	Cycles uint64
	Instrs uint64
	H      *cache.Hierarchy
}

// RunNative executes the workload directly on the platform's hardware
// model (the paper's "native execution").
func RunNative(w *workloads.Workload, p *Platform, hwPrefetch bool) (*NativeResult, error) {
	h := p.Hierarchy(hwPrefetch)
	m := vm.New(w.Program(), h)
	if err := m.Run(MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s native: %w", w.Name, err)
	}
	return &NativeResult{Cycles: m.Cycles, Instrs: m.Instrs, H: h}, nil
}

// RunRIO executes the workload under the code-cache substrate alone
// (the "DynamoRIO" bar of Figure 2).
func RunRIO(w *workloads.Workload, p *Platform, hwPrefetch bool) (*rio.Runtime, error) {
	h := p.Hierarchy(hwPrefetch)
	m := vm.New(w.Program(), h)
	rt := rio.NewRuntime(m)
	if err := rt.Run(MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s rio: %w", w.Name, err)
	}
	return rt, nil
}

// UMIRun is one full UMI execution.
type UMIRun struct {
	Report *umi.Report
	RT     *rio.Runtime
	H      *cache.Hierarchy
	Opt    *prefetch.Optimizer // nil unless prefetching was enabled
	// Metrics is the run's final self-observability snapshot (filter
	// counts, analysis latency, pipeline queue pressure).
	Metrics metrics.Snapshot
	// Events is the run's structured event timeline. The harness always
	// records it: recording is observational (every experiment's modelled
	// numbers are byte-identical with or without it), and the timeline
	// experiments read it back.
	Events *tracelog.Log
	// History is the run's profile-history snapshot: one WindowSummary per
	// analyzer invocation, with churn and phase-change accounting. Like
	// Events it is always recorded (capture is observational) and fully
	// deterministic, so the phases experiment can render it golden-tested.
	History umi.HistoryView
	// Wall is the measured wall-clock duration of the guest run — the
	// denominator for events/sec and other live rates. Nondeterministic;
	// never renders into a golden surface.
	Wall time.Duration
	// Overhead is the per-stage self-overhead attribution report. The
	// modelled-cycles half is deterministic (golden-safe); the wall half is
	// measured and belongs to live renders only.
	Overhead *umi.OverheadReport
}

// TotalCycles is the modelled running time under UMI.
func (r *UMIRun) TotalCycles() uint64 { return r.RT.TotalCycles() }

// RunUMI executes the workload under the full UMI stack. withPrefetch
// attaches the software stride prefetcher at the analysis boundary;
// consumers are extra profile analyses attached to the system.
func RunUMI(w *workloads.Workload, p *Platform, cfg umi.Config, hwPrefetch, withPrefetch bool,
	consumers ...umi.ProfileConsumer) (*UMIRun, error) {
	h := p.Hierarchy(hwPrefetch)
	m := vm.New(w.Program(), h)
	rt := rio.NewRuntime(m)
	s := umi.Attach(rt, cfg)
	for _, c := range consumers {
		s.AddConsumer(c)
	}
	elog := s.EnableEventTrace(0)
	var opt *prefetch.Optimizer
	if withPrefetch {
		opt = prefetch.NewOptimizer(prefetch.DefaultConfig)
		s.OnAnalyzed = opt.Hook()
	}
	start := time.Now()
	if err := rt.Run(MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s umi: %w", w.Name, err)
	}
	s.Finish()
	wall := time.Since(start)
	return &UMIRun{Report: s.Report(), RT: rt, H: h, Opt: opt,
		Metrics: s.MetricsSnapshot(), Events: elog,
		History: s.History(), Wall: wall, Overhead: s.Overhead()}, nil
}

// RunCachegrind executes the workload natively while feeding every memory
// reference through the offline simulator configured like the platform.
func RunCachegrind(w *workloads.Workload, p *Platform) (*cachegrind.Simulator, error) {
	var sim *cachegrind.Simulator
	switch p {
	case K7:
		sim = cachegrind.NewK7()
	default:
		sim = cachegrind.NewP4()
	}
	m := vm.New(w.Program(), nil)
	m.RefHook = sim.Ref
	if err := m.Run(MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s cachegrind: %w", w.Name, err)
	}
	return sim, nil
}

// namesOf is a selection helper: nil means the paper's 32-benchmark core.
func selectWorkloads(names []string) ([]*workloads.Workload, error) {
	if names == nil {
		return workloads.CPU2000AndOlden(), nil
	}
	out := make([]*workloads.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}
