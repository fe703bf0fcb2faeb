// Package umi is the public interface to the Ubiquitous Memory
// Introspection library: online, lightweight, instruction-granularity
// memory-behaviour profiling of guest programs via bursty trace
// instrumentation and fast cache mini-simulations (Zhao et al., CGO 2007).
//
// The typical flow:
//
//	prog := ...                            // build a guest program
//	sess := umi.NewSession(prog)           // defaults: Pentium 4 model
//	report, err := sess.Run()
//	for pc := range report.Delinquent {    // delinquent loads, strides, ...
//		...
//	}
//
// Options select the hardware model (Pentium4, AMDK7), toggle sampling
// reinforcement and the online software prefetcher, and expose the UMI
// parameters from the paper (frequency threshold, address-profile
// geometry, delinquency thresholds).
package umi

import (
	"errors"
	"fmt"
	"io"

	"umi/internal/cache"
	"umi/internal/metrics"
	"umi/internal/prefetch"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/tracelog"
	iumi "umi/internal/umi"
	"umi/internal/vm"
)

// Re-exported result types.
type (
	// Report is the profiling summary of one session.
	Report = iumi.Report
	// OpStat is the mini-simulated behaviour of one memory operation.
	OpStat = iumi.OpStat
	// StrideInfo is a discovered dominant stride.
	StrideInfo = iumi.StrideInfo
	// MetricsSnapshot is a point-in-time copy of the runtime's
	// self-observability metrics: counters, gauges with high-water marks,
	// and latency histograms. It marshals with encoding/json and renders
	// deterministically with String.
	MetricsSnapshot = metrics.Snapshot
	// Event is one structured lifecycle event recorded by WithEventTrace:
	// a typed record (trace promoted/instrumented/deinstrumented, profile
	// fill, analyzer invocation span, cache flush, pipeline hand-off)
	// stamped with the modelled guest-cycle clock. The Seq and WallNs
	// fields are the only non-deterministic content.
	Event = tracelog.Event
	// EventLog is the ring-buffered event timeline: bounded memory,
	// oldest events dropped (and counted) on overflow, snapshot-safe from
	// any goroutine.
	EventLog = tracelog.Log
	// WindowSummary is one analyzer invocation's compact record of memory
	// behaviour: window and cumulative miss ratios, delinquent-set size,
	// membership hash and churn against the previous window, stride mix,
	// and working-set lines, stamped with the modelled cycle clock.
	WindowSummary = iumi.WindowSummary
	// HistoryView is a snapshot of the profile-history ring: total and
	// retained window counts, phase-change accounting, and the windows
	// themselves, oldest first.
	HistoryView = iumi.HistoryView
	// OverheadReport attributes a run's introspection cost per stage:
	// modelled cycles (deterministic) and measured wall-ns, each as a
	// ratio against the guest's own cost.
	OverheadReport = iumi.OverheadReport
	// StageCost is one introspection stage's share of an OverheadReport.
	StageCost = iumi.StageCost
	// Program is an assembled guest program.
	Program = program.Program
	// Builder constructs guest programs.
	Builder = program.Builder
)

// NewProgram returns a builder for a guest program with the given name.
func NewProgram(name string) *Builder { return program.NewBuilder(name) }

// Machine selects the modelled hardware platform.
type Machine int

// Supported hardware models (§6 of the paper).
const (
	Pentium4 Machine = iota
	AMDK7
)

// Option configures a Session.
type Option func(*Session)

// WithMachine selects the hardware model (default Pentium4).
func WithMachine(m Machine) Option { return func(s *Session) { s.machine = m } }

// WithHWPrefetch enables the platform's hardware prefetchers (Pentium 4
// only; the K7 has none).
func WithHWPrefetch() Option { return func(s *Session) { s.hwPrefetch = true } }

// WithSoftwarePrefetch attaches the online software stride prefetcher at
// the analysis boundary (§8).
func WithSoftwarePrefetch() Option { return func(s *Session) { s.swPrefetch = true } }

// WithCacheBypass attaches the online non-temporal rewriter: streaming
// delinquent loads are marked to bypass the L2, protecting the resident
// working set (the cache-replacement enhancement the paper's conclusion
// proposes). Composes with WithSoftwarePrefetch.
func WithCacheBypass() Option { return func(s *Session) { s.ntBypass = true } }

// WithoutSampling disables sample-based region-selection reinforcement:
// every trace is instrumented at creation.
func WithoutSampling() Option {
	return func(s *Session) { s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.UseSampling = false }) }
}

// WithFrequencyThreshold sets the sampling frequency threshold (§2).
func WithFrequencyThreshold(n int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.FrequencyThreshold = n })
	}
}

// WithSamplePeriod sets the PC-sampling period in retired instructions.
func WithSamplePeriod(n uint64) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.SamplePeriod = n })
	}
}

// WithAddressProfileRows sets the executions recorded per trace profile.
func WithAddressProfileRows(n int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.AddressProfileRows = n })
	}
}

// WithGlobalDelinquencyThreshold replaces the adaptive per-trace
// delinquency threshold with a fixed global alpha.
func WithGlobalDelinquencyThreshold(alpha float64) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) {
			c.Adaptive = false
			c.DelinquencyInit = alpha
		})
	}
}

// WithAnalyzerWorkers selects where profile analysis runs: at n ≥ 2 —
// every such n alike — filled address profiles are handed off over a
// bounded channel to one sequencer goroutine that owns the analyzer, so
// the guest keeps executing while analysis proceeds on another core. At
// n ≤ 1 (the default) the analyzer runs inline on the guest thread.
// Reports are identical either way — profiles are merged in a fixed
// PC-sorted order. Sessions with
// WithSoftwarePrefetch or WithCacheBypass fall back to the inline path:
// their optimizers need analysis results at the deinstrument boundary.
func WithAnalyzerWorkers(n int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.AnalyzerWorkers = n })
	}
}

// WithMaxInstructions bounds the run (default 200M).
func WithMaxInstructions(n uint64) Option { return func(s *Session) { s.maxInstrs = n } }

// WithEventTrace attaches a structured event timeline of the given ring
// capacity (0 selects the default, 65536 events). Recording is purely
// observational — every event is stamped with the modelled cycle clock and
// never feeds back into modelled state — so profiling reports are
// byte-identical with or without it. Snapshot the log at any time via
// Events(); render with tracelog.Timeline or export Chrome trace-event
// JSON (loadable in Perfetto) with WriteChromeTrace.
func WithEventTrace(capacity int) Option {
	return func(s *Session) {
		s.traceEvents = true
		s.traceCapacity = capacity
	}
}

// WithHistory bounds the profile-history ring at n trailing windows
// (0 keeps the default, 64; negative disables capture). Capture reads only
// modelled analyzer state after each invocation and never feeds back into
// results, so profiling reports are byte-identical at any setting.
func WithHistory(n int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.HistoryWindows = n })
	}
}

// FormatHistory renders window summaries as the CLIs' phase-history
// section: one deterministic line per analyzer invocation with window and
// cumulative miss ratios, delinquent-set churn, and phase-change markers.
func FormatHistory(windows []WindowSummary) string { return iumi.FormatHistory(windows) }

// WithBurstSampling enables Examem-style burst sampling of trace
// instrumentation: an instrumented trace records only 1-in-period of its
// executions, on a deterministic schedule derived from seed and the
// trace's start PC; skipped executions run without profiling hooks,
// paying only the prolog conditional. period ≤ 1 disables. Sampled runs
// remain byte-identical across analyzer worker counts for a fixed seed.
func WithBurstSampling(period int, seed uint64) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) {
			c.BurstPeriod = period
			c.SamplerSeed = seed
		})
	}
}

// WithRowReservoir caps the rows a profile physically retains at n:
// beyond the cap, each recorded execution replaces a deterministic
// pseudo-random resident or is dropped (classic reservoir sampling), so
// the analyzer replays a uniform sample of the burst at a fraction of the
// simulation cost. 0 disables.
func WithRowReservoir(n int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) { c.ReservoirRows = n })
	}
}

// WithAdaptiveSampling enables history-driven adaptation: after
// stableWindows consecutive analyzer windows without a phase change the
// sampler halves the per-trace row target and doubles the
// reinstrumentation cooldown (one level per step, bounded); any
// phase-change flag re-arms full profiling immediately. stableWindows ≤ 0
// selects the default (4). Adaptation reads analysis results at the
// deinstrument boundary, so such sessions run the inline analysis path.
func WithAdaptiveSampling(stableWindows int) Option {
	return func(s *Session) {
		s.cfgEdit = append(s.cfgEdit, func(c *iumi.Config) {
			c.AdaptSampling = true
			c.AdaptStableWindows = stableWindows
		})
	}
}

// FormatOverhead renders the deterministic per-stage attribution table
// (modelled cycles); FormatOverheadLive renders the measured-wall view.
func FormatOverhead(r *OverheadReport) string { return r.String() }

// FormatOverheadLive renders the wall-clock half of an overhead report.
func FormatOverheadLive(r *OverheadReport) string { return r.LiveString() }

// WriteChromeTrace serializes recorded events as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing: analyzer invocations as
// duration spans per component track, lifecycle events as instants, and
// derived counter tracks for delinquent-set size and pipeline queue depth.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return tracelog.WriteChromeTrace(w, events)
}

// FormatTimeline renders events as the deterministic plain-text timeline.
func FormatTimeline(events []Event, drops uint64) string {
	return tracelog.Timeline(events, drops)
}

// FormatMetrics renders a snapshot as the CLIs' self-overhead section:
// headline rates (candidate filter rate, analysis latency summary, queue
// pressure) followed by the full name-sorted registry dump.
func FormatMetrics(snap MetricsSnapshot) string { return iumi.FormatMetrics(snap) }

// FilterRate extracts the candidate-operation filter rate from a snapshot
// (the paper reports ~80% of candidate memory operations filtered); ok is
// false when the session saw no candidates.
func FilterRate(snap MetricsSnapshot) (rate float64, ok bool) { return iumi.FilterRate(snap) }

// Session executes one program under the full UMI stack.
type Session struct {
	prog       *Program
	machine    Machine
	hwPrefetch bool
	swPrefetch bool
	ntBypass   bool
	maxInstrs  uint64
	cfgEdit    []func(*iumi.Config)

	traceEvents   bool
	traceCapacity int

	wantWorkingSet bool
	wantPatterns   bool
	whatIfConfigs  []CacheConfig

	// populated by Run
	report     *Report
	metrics    MetricsSnapshot
	hierarchy  *cache.Hierarchy
	runtime    *rio.Runtime
	optimizer  *prefetch.Optimizer
	ntOpt      *prefetch.NTOptimizer
	workingSet *WorkingSet
	patterns   *PatternCensus
	whatIf     *WhatIf
	events     *tracelog.Log
	history    HistoryView
	overhead   *OverheadReport
}

// NewSession prepares a session for the program.
func NewSession(p *Program, opts ...Option) *Session {
	s := &Session{prog: p, maxInstrs: 200_000_000}
	for _, o := range opts {
		o(s)
	}
	return s
}

// ErrAlreadyRun is returned when Run is called twice on one session.
var ErrAlreadyRun = errors.New("umi: session already run")

// Run executes the program to completion under UMI and returns the
// profiling report.
func (s *Session) Run() (*Report, error) {
	if s.report != nil {
		return nil, ErrAlreadyRun
	}
	var h *cache.Hierarchy
	var l2 cache.Config
	switch s.machine {
	case AMDK7:
		h = cache.NewK7()
		l2 = cache.K7L2
	default:
		h = cache.NewP4(s.hwPrefetch)
		l2 = cache.P4L2
	}
	m := vm.New(s.prog, h)
	rt := rio.NewRuntime(m)
	cfg := iumi.DefaultConfig(l2)
	cfg.SamplePeriod = 2_000
	cfg.FrequencyThreshold = 8
	cfg.ReinstrumentGap = 100_000
	for _, edit := range s.cfgEdit {
		edit(&cfg)
	}
	sys := iumi.Attach(rt, cfg)
	var hooks []func(*rio.Fragment, *iumi.Analyzer) *rio.Fragment
	if s.swPrefetch {
		s.optimizer = prefetch.NewOptimizer(prefetch.DefaultConfig)
		hooks = append(hooks, s.optimizer.Hook())
	}
	if s.ntBypass {
		s.ntOpt = prefetch.NewNTOptimizer()
		hooks = append(hooks, s.ntOpt.Hook())
	}
	if len(hooks) > 0 {
		sys.OnAnalyzed = prefetch.Chain(hooks...)
	}
	if s.traceEvents {
		s.events = sys.EnableEventTrace(s.traceCapacity)
	}
	if s.wantWorkingSet {
		s.workingSet = iumi.NewWorkingSet(l2.LineSize)
		sys.AddConsumer(s.workingSet)
	}
	if s.wantPatterns {
		s.patterns = iumi.NewPatternCensus()
		sys.AddConsumer(s.patterns)
	}
	if len(s.whatIfConfigs) > 0 {
		s.whatIf = iumi.NewWhatIf(cfg.WarmupRows, s.whatIfConfigs...)
		sys.AddConsumer(s.whatIf)
	}
	if err := rt.Run(s.maxInstrs); err != nil {
		return nil, fmt.Errorf("umi: %w", err)
	}
	sys.Finish()
	s.report = sys.Report()
	s.metrics = sys.MetricsSnapshot()
	s.history = sys.History()
	s.overhead = sys.Overhead()
	s.hierarchy = h
	s.runtime = rt
	return s.report, nil
}

// Report returns the profiling report (nil before Run).
func (s *Session) Report() *Report { return s.report }

// Metrics returns the final self-observability snapshot of the run: what
// the runtime's introspection cost, from instrumentation and filter
// counts through analysis latency and pipeline queue pressure. The zero
// Snapshot before Run.
func (s *Session) Metrics() MetricsSnapshot { return s.metrics }

// Overhead returns the run's per-stage self-overhead attribution: where
// the introspection cost went, in modelled cycles (deterministic — the
// basis of the overhead/accuracy frontier) and measured wall time. Nil
// before Run.
func (s *Session) Overhead() *OverheadReport { return s.overhead }

// History returns the profile-history snapshot of the run: one
// WindowSummary per analyzer invocation (bounded by WithHistory), with
// delinquent-set churn and phase-change flags. The empty (schema-stamped)
// view before Run.
func (s *Session) History() HistoryView {
	if s.report == nil {
		return (*iumi.History)(nil).View()
	}
	return s.history
}

// EventLog returns the structured event timeline (nil unless the session
// was built WithEventTrace). Safe to snapshot from any goroutine, during
// or after the run.
func (s *Session) EventLog() *EventLog { return s.events }

// Events returns the retained lifecycle events in emission order, with
// Drops() on the log reporting how many older events the ring discarded.
// Nil unless the session was built WithEventTrace.
func (s *Session) Events() []Event { return s.events.Events() }

// HardwareMissRatio returns the ground-truth L2 miss ratio the modelled
// hardware observed (what a performance counter would report).
func (s *Session) HardwareMissRatio() float64 {
	if s.hierarchy == nil {
		return 0
	}
	return s.hierarchy.L2Stats.MissRatio()
}

// HardwareL2Misses returns the ground-truth L2 miss count.
func (s *Session) HardwareL2Misses() uint64 {
	if s.hierarchy == nil {
		return 0
	}
	return s.hierarchy.L2Stats.Misses
}

// TotalCycles returns the modelled running time including all runtime
// overhead.
func (s *Session) TotalCycles() uint64 {
	if s.runtime == nil {
		return 0
	}
	return s.runtime.TotalCycles()
}

// GuestInstructions returns retired guest instructions.
func (s *Session) GuestInstructions() uint64 {
	if s.runtime == nil {
		return 0
	}
	return s.runtime.M.Instrs
}

// PrefetchesInserted reports how many software prefetches the optimizer
// injected (0 unless WithSoftwarePrefetch).
func (s *Session) PrefetchesInserted() int {
	if s.optimizer == nil {
		return 0
	}
	return len(s.optimizer.Insertions)
}

// LoadsBypassed reports how many loads were rewritten to bypass the L2
// (0 unless WithCacheBypass).
func (s *Session) LoadsBypassed() int {
	if s.ntOpt == nil {
		return 0
	}
	return len(s.ntOpt.Rewritten)
}
