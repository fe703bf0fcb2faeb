// Package harness drives the reproduction's experiments: one driver per
// table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). Every driver returns a typed result with a
// String() rendering that mirrors the paper's presentation, so
// cmd/umibench and the bench suite can regenerate any artifact.
package harness

import (
	"errors"
	"fmt"
	"time"

	"umi/internal/cache"
	"umi/internal/cachegrind"
	"umi/internal/prefetch"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
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
	// Sys, RT and H are the run's UMI system, code-cache runtime and
	// hardware model. rio is transparent, so whenever no optimizer
	// rewrote the guest, RT.M.Cycles, RT.M.Instrs and H's statistics are
	// exactly what RunNative reports for the same platform and HW
	// prefetch setting (TestRunsShareOneExecution): a driver reads its
	// native numbers here rather than executing the guest again. The
	// setup step of RunProgram configures Sys. Once the run is finished,
	// Sys holds its final state: the analysis (Sys.Analyzer), the
	// self-observability snapshot (Sys.MetricsSnapshot), the per-stage
	// attribution (Sys.Overhead, whose modelled half is deterministic and
	// golden-safe) and the event log (Sys.EventLog), nil unless setup
	// enabled one. RunUMI always enables it; recording is observational,
	// so every experiment's modelled numbers are byte-identical with or
	// without it.
	Sys    *umi.System
	Report *umi.Report
	RT     *rio.Runtime
	H      *cache.Hierarchy
	Opt    *prefetch.Optimizer // nil unless prefetching was enabled
	// History is the run's profile-history snapshot: one WindowSummary per
	// analyzer invocation, with churn and phase-change accounting. It is
	// always recorded (capture is observational) and fully
	// deterministic, so the phases experiment can render it golden-tested.
	History umi.HistoryView
	// Wall is the measured wall-clock duration of the guest run — the
	// denominator for events/sec and other live rates. Nondeterministic;
	// never renders into a golden surface.
	Wall time.Duration

	enc *wire.Encoder // the run's umi-profile stream, nil unless Emit
}

// TotalCycles is the modelled running time under UMI.
func (r *UMIRun) TotalCycles() uint64 { return r.RT.TotalCycles() }

// Emit records the run's umi-profile stream into enc, with a header that
// names the guest and the machine. Call it from RunProgram's setup step;
// RunProgram writes the stream's tail and flushes enc once the run is
// finished. Emission is observational: the run reports exactly what it
// would without it.
func (r *UMIRun) Emit(enc *wire.Encoder, guest, machine string) {
	r.Sys.EnableWireEmit(enc, guest, machine)
	r.enc = enc
}

// RunProgram is the one body that turns a program into a finished UMI
// run: the platform's hierarchy, the machine, the rio runtime, UMI
// attached with cfg, then setup (consumers, OnAnalyzed, the event log,
// Emit, a daemon's adoption of Sys; nil for none), the run to maxInstrs
// retired instructions, Finish, and the stream tail and flush. A run that
// exhausts maxInstrs is still finished and returned, with an error
// wrapping rio.ErrNotHalted: a session run (umid, introspect's standalone
// runs) treats the bound as a truncation, and every other caller as a
// failure. Any other error returns no run.
func RunProgram(prog *program.Program, p *Platform, hwPrefetch bool, cfg umi.Config,
	maxInstrs uint64, setup func(*UMIRun)) (*UMIRun, error) {
	h := p.Hierarchy(hwPrefetch)
	rt := rio.NewRuntime(vm.New(prog, h))
	r := &UMIRun{Sys: umi.Attach(rt, cfg), RT: rt, H: h}
	if setup != nil {
		setup(r)
	}
	start := time.Now()
	err := rt.Run(maxInstrs)
	if err != nil && !errors.Is(err, rio.ErrNotHalted) {
		return nil, err
	}
	r.Sys.Finish()
	r.Wall = time.Since(start)
	if r.enc != nil {
		r.Sys.EmitWireTail(r.enc, h)
		if ferr := r.enc.Flush(); ferr != nil {
			return nil, fmt.Errorf("emit: %w", ferr)
		}
	}
	r.Report = r.Sys.Report()
	r.History = r.Sys.History()
	return r, err
}

// RunUMI executes the workload under the full UMI stack, with the
// default event log. withPrefetch attaches the software stride
// prefetcher at the analysis boundary. The setup steps then run in
// order, as RunProgram's setup does: a step may add a profile consumer
// to r.Sys, or set r.RT.M.RefHook so that a ground-truth observer
// (Cachegrind, the PMU model) sees every reference a native run of the
// guest would.
func RunUMI(w *workloads.Workload, p *Platform, cfg umi.Config, hwPrefetch, withPrefetch bool,
	setup ...func(*UMIRun)) (*UMIRun, error) {
	r, err := RunProgram(w.Program(), p, hwPrefetch, cfg, MaxInstrs, func(r *UMIRun) {
		r.Sys.EnableEventTrace(0)
		if withPrefetch {
			r.Opt = prefetch.NewOptimizer(prefetch.DefaultConfig)
			r.Sys.OnAnalyzed = r.Opt.Hook()
		}
		for _, s := range setup {
			s(r)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s umi: %w", w.Name, err)
	}
	return r, nil
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

// selectWorkloads resolves an experiment's workload names. nil selects
// the experiment's defaults, or the paper's 32-benchmark core when it
// names none.
func selectWorkloads(names []string, defaults ...string) ([]*workloads.Workload, error) {
	if names == nil {
		if len(defaults) == 0 {
			return workloads.CPU2000AndOlden(), nil
		}
		names = defaults
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
