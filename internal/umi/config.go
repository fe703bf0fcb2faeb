// Package umi implements Ubiquitous Memory Introspection: the region
// selector, instrumentor, and profile analyzer of the paper, layered on the
// rio runtime.
//
// Lifecycle of one code trace under UMI:
//
//  1. The rio trace builder installs a new trace; the region selector
//     registers it (and, when sampling reinforcement is on, waits until
//     the trace has accumulated FrequencyThreshold PC samples).
//  2. The instrumentor clones the trace (T_c), filters its memory
//     operations (stack-relative and static references are skipped),
//     attaches profiling hooks for the survivors, and installs a prolog.
//  3. Each trace entry opens a new row in the trace's two-dimensional
//     address profile; each profiled operation records its effective
//     address into the row.
//  4. When the trace's address profile fills (AddressProfileRows rows) or
//     the global trace profile fills (TraceProfileLen rows across all
//     live traces), the profile analyzer runs: a fast cache mini-simulation
//     over the recorded rows, with warm-up skipping, a single logical
//     cache carried across invocations, and periodic flushing.
//  5. The analyzer labels loads whose simulated miss ratio exceeds the
//     trace's (adaptive) delinquency threshold as delinquent, extracts
//     dominant strides, swaps the instrumented trace for its clean clone,
//     and the application continues unprofiled until the region selector
//     re-triggers the trace.
package umi

import "umi/internal/cache"

// Config controls the UMI prototype. DefaultConfig matches the paper's
// published parameter choices.
type Config struct {
	// FrequencyThreshold is the sample count that promotes a trace for
	// instrumentation when sampling reinforcement is on (§2; default 64).
	FrequencyThreshold int

	// UseSampling enables sample-based reinforcement of the region
	// selector. Without it every new trace is instrumented immediately
	// and re-instrumented after ReinstrumentGap guest instructions
	// (Table 3 reports this mode: "in the absence of sample-based
	// reinforcement").
	UseSampling bool

	// SamplePeriod is the PC-sampling period in retired guest
	// instructions, standing in for the paper's 10 ms timer.
	SamplePeriod uint64

	// ReinstrumentGap is the cooldown, in retired guest instructions,
	// before an analyzed trace may be instrumented again, keeping the
	// profiling bursty rather than continuous.
	ReinstrumentGap uint64

	// AddressProfileOps caps the profiled operations per trace (§4.2;
	// default 256).
	AddressProfileOps int
	// AddressProfileRows caps recorded executions per trace (§4.2;
	// default 256).
	AddressProfileRows int
	// TraceProfileLen caps rows across all live profiles before the
	// analyzer triggers (§4.2; default 8192, guarded in the paper by a
	// protected page so the prolog needs only one conditional jump).
	TraceProfileLen int

	// WarmupRows is how many leading rows of each address profile are
	// simulated without miss accounting (§5: "typically two executions
	// of the trace"), suppressing inflated compulsory misses.
	WarmupRows int

	// FlushCycleGap: the analyzer flushes its logical cache when more
	// than this many guest cycles have elapsed since it last ran (§5;
	// default 1M), avoiding long-term contamination.
	FlushCycleGap uint64

	// Delinquency threshold α (§7): a load is labelled delinquent when
	// its simulated miss ratio exceeds the trace's threshold. With
	// Adaptive set, each trace starts at Init and steps down by Step per
	// analyzer invocation it triggers, to a floor of Min; otherwise the
	// global value Init applies throughout.
	DelinquencyInit float64
	DelinquencyStep float64
	DelinquencyMin  float64
	Adaptive        bool

	// AdaptiveFrequency enables the paper's proposed extension (§7.2:
	// "Future work may explore adaptively tuning the threshold according
	// to the application and trace characteristics"): each trace gets its
	// own frequency threshold, halved after an analysis that found
	// delinquent loads in the trace (profile interesting code more
	// often) and doubled — up to MaxFrequencyThreshold — after one that
	// found none (back off boring code).
	AdaptiveFrequency     bool
	MaxFrequencyThreshold int

	// FilterOps enables the instrumentor's operation filtering (§4.1:
	// skip stack-relative and static references). Disabling it is the
	// ablation: every load/store in the trace is profiled.
	FilterOps bool

	// MiniSimCache is the mini-simulator geometry, configured to match
	// the host's L2 (§5).
	MiniSimCache cache.Config

	// HistoryWindows bounds the profile-history ring: how many trailing
	// per-invocation WindowSummary records are retained (0 selects
	// DefaultHistoryWindows; negative disables capture entirely). Capture
	// derives only from modelled state and never feeds back into results,
	// so reports are byte-identical at every setting.
	HistoryWindows int

	// Phase-change detection thresholds: a window is flagged as a phase
	// transition when its miss ratio moved more than PhaseMissDelta from
	// the previous window's, or when delinquent-set churn (1 − Jaccard
	// similarity against the previous window) exceeds PhaseChurnDelta.
	PhaseMissDelta  float64
	PhaseChurnDelta float64

	// AnalyzerWorkers selects where the profile analyzer runs. Below 2
	// it runs inline on the guest thread (the paper's synchronous model).
	// At 2 or more — every value alike — filled profiles are handed off
	// over a bounded queue to one sequencer goroutine that owns the
	// logical cache and runs each profile's whole analysis, so the guest
	// keeps executing while profiles are analyzed; the sequencer replays
	// profiles in the fixed PC-sorted submission order, so results are
	// identical either way. The pipeline silently falls back to the
	// synchronous path when OnAnalyzed, AdaptiveFrequency or AdaptSampling
	// needs analysis results at deinstrumentation time. It stays an int,
	// not a bool, because existing callers pass worker counts.
	AnalyzerWorkers int

	// Burst sampling (Examem-style): when BurstPeriod > 1 an instrumented
	// trace records only 1-in-BurstPeriod of its executions — the prolog
	// skips hook installation for the rest, so a skipped entry pays
	// PrologCost but no per-reference cost and contributes no profile row.
	// The instrumented burst still ends after AddressProfileRows entries
	// (recorded or not), so the analyzer cadence is unchanged and each
	// invocation sees a ~1/BurstPeriod row sample. The schedule is
	// deterministic — derived from SamplerSeed and the trace's start PC,
	// advanced by the trace's own entry counter, all guest-thread modelled
	// state — so reports stay byte-identical at every worker count.
	// BurstPeriod ≤ 1 disables burst sampling (today's behaviour exactly).
	BurstPeriod int

	// SamplerSeed seeds the deterministic burst and reservoir schedules.
	// Zero is a valid seed; two runs with the same seed (and config)
	// produce byte-identical reports.
	SamplerSeed uint64

	// ReservoirRows, when > 0 and below the effective row target, caps how
	// many rows a profile physically retains: the first ReservoirRows
	// recorded executions fill the buffer, after which each further one
	// replaces a deterministically-pseudo-random resident with probability
	// cap/seen (classic reservoir sampling) or is dropped — so the
	// analyzer replays a uniform sample of the burst's executions at a
	// fraction of the simulation cost. 0 disables.
	ReservoirRows int

	// AdaptSampling enables history-driven adaptation: after
	// AdaptStableWindows consecutive analyzer windows without a
	// PhaseChange flag, the sampler steps down one level — halving the
	// per-trace row target and doubling the reinstrumentation cooldown —
	// down to at most adaptMaxLevel steps; any PhaseChange re-arms level 0
	// (full profiling) immediately. Adaptation reads analysis results at
	// deinstrument time, so (like OnAnalyzed and AdaptiveFrequency) it
	// forces the inline analysis path. Requires HistoryWindows ≥ 0.
	AdaptSampling bool

	// AdaptStableWindows is the consecutive phase-stable window count K
	// that triggers one adaptation step (0 selects
	// DefaultAdaptStableWindows).
	AdaptStableWindows int

	// Overhead model (cycles).
	PerRefCost     uint64 // per recorded (pc, address) tuple (§4.2: 4-6 ops)
	PrologCost     uint64 // per instrumented trace entry
	AnalyzerPerRef uint64 // analyzer cycles per simulated reference
	AnalyzerFixed  uint64 // analyzer invocation fixed cost (context switch)
	InstrumentCost uint64 // per instrument/swap event (clone + patching)
}

// DefaultAdaptStableWindows is the default stable-window count before an
// adaptation step when AdaptSampling is on and AdaptStableWindows is 0.
const DefaultAdaptStableWindows = 4

// adaptMaxLevel bounds history-driven adaptation: each level halves the
// row target and doubles the cooldown, so level 3 profiles 1/8 the rows
// at 8× the interval — deep enough to matter, shallow enough that a
// re-arm recovers full profiling within one window.
const adaptMaxLevel = 3

// adaptMinRows floors the adapted per-trace row target so even the
// quietest phase keeps enough post-warmup rows for stable miss ratios.
const adaptMinRows = 32

// burstPeriod returns the effective burst period (≥ 1).
func (c *Config) burstPeriod() int {
	if c.BurstPeriod < 1 {
		return 1
	}
	return c.BurstPeriod
}

// adaptStableWindows returns the effective K for AdaptSampling.
func (c *Config) adaptStableWindows() int {
	if c.AdaptStableWindows <= 0 {
		return DefaultAdaptStableWindows
	}
	return c.AdaptStableWindows
}

// clampAlpha bounds a delinquency threshold to the configured window
// [DelinquencyMin, max(DelinquencyInit, DelinquencyMin)] (§7: 0.90 → 0.10
// in 0.10 steps). Every adaptive step passes through here, so repeated
// adaptation can neither sink the threshold below the floor nor climb it
// above the starting value.
func (c *Config) clampAlpha(alpha float64) float64 {
	hi := c.DelinquencyInit
	if hi < c.DelinquencyMin {
		hi = c.DelinquencyMin
	}
	if alpha > hi {
		return hi
	}
	if alpha < c.DelinquencyMin {
		return c.DelinquencyMin
	}
	return alpha
}

// DefaultConfig returns the paper's parameters against the given host L2
// geometry.
func DefaultConfig(hostL2 cache.Config) Config {
	return Config{
		FrequencyThreshold:    64,
		MaxFrequencyThreshold: 1024,
		UseSampling:           true,
		SamplePeriod:          50_000,
		ReinstrumentGap:       2_000_000,
		AddressProfileOps:     256,
		AddressProfileRows:    256,
		TraceProfileLen:       8192,
		WarmupRows:            2,
		FlushCycleGap:         1_000_000,
		HistoryWindows:        DefaultHistoryWindows,
		PhaseMissDelta:        0.05,
		PhaseChurnDelta:       0.5,
		DelinquencyInit:       0.90,
		DelinquencyStep:       0.10,
		DelinquencyMin:        0.10,
		Adaptive:              true,
		FilterOps:             true,
		MiniSimCache:          hostL2,
		PerRefCost:            5,
		PrologCost:            3,
		AnalyzerPerRef:        3,
		AnalyzerFixed:         400,
		InstrumentCost:        120,
	}
}
