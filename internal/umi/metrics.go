package umi

import (
	"fmt"
	"strings"

	"umi/internal/metrics"
	"umi/internal/rio"
)

// Self-observability for the UMI runtime. The paper's claim is that
// introspection is cheap enough to leave on in production; this file is
// how the runtime continuously measures its own cost instead of asserting
// it. Every System carries a Metrics set: atomic counters, gauges, and
// latency histograms updated on the thread that owns each event — the
// guest thread for region-selection and instrumentation events, the
// sequencer goroutine for analysis events — so a snapshot is safe from any
// goroutine and the hot-path cost is a handful of uncontended atomic adds.
//
// Metric names, by layer:
//
//	umi.traces.*        region selector / instrumentor events
//	umi.candidates.*    operation filtering (§4.1) accounting
//	umi.profiles.*      address-profile fill events
//	umi.analyzer.*      profile-analyzer invocations and latency
//	umi.pool.*          asynchronous pipeline health (queue depths, busy time)
//	minisim.*           the analyzer's logical cache (accesses, misses, evictions)
//	rio.*               substrate counters mirrored at snapshot points
type Metrics struct {
	reg *metrics.Registry

	// Region selector / instrumentor (guest thread).
	TracesSeen           *metrics.Counter
	TracesInstrumented   *metrics.Counter
	TracesDeinstrumented *metrics.Counter
	TracesBarren         *metrics.Counter
	CandidatesKept       *metrics.Counter
	CandidatesFiltered   *metrics.Counter
	ProfileFills         *metrics.Counter // per-trace profile reached capacity
	GlobalFills          *metrics.Counter // global trace-profile trigger (§4.2)
	ProfilesCollected    *metrics.Counter
	AdaptiveAlphaSteps   *metrics.Counter
	AdaptiveFreqSteps    *metrics.Counter

	// Analyzer (sequencer goroutine, or guest thread on the inline path).
	Invocations      *metrics.Counter
	Flushes          *metrics.Counter
	SimulatedRefs    *metrics.Counter
	MiniSimAccesses  *metrics.Counter
	MiniSimMisses    *metrics.Counter
	MiniSimEvictions *metrics.Counter
	AnalysisLatency  *metrics.Histogram // wall ns per analyzer invocation

	// Pipeline (pool.go).
	Submits       *metrics.Counter
	SyncFallbacks *metrics.Counter // invocations forced inline despite workers >= 2
	SeqBacklog    *metrics.Gauge   // whole invocations queued behind the sequencer
	RecycleQueue  *metrics.Gauge   // idle recycled buffers
	RecycleHits   *metrics.Counter // instrumentations served from a recycled buffer
	RecycleMisses *metrics.Counter // instrumentations that had to allocate
	PrepBusyNs    *metrics.Counter // cumulative stride-discovery time (analyzer owner)
	SeqBusyNs     *metrics.Counter // cumulative sequencer busy time

	// Per-stage self-overhead attribution (overhead.go). Event counters
	// feed the modelled cost model (cycles = events × configured unit
	// cost); wall counters hold measured nanoseconds. Each cell is written
	// only by the thread that owns its stage — guest thread for
	// instrument/fill/analyze-charge/emit, the analyzer owner (sequencer
	// goroutine or inline guest) for history capture and prep — so
	// scraping them from any goroutine is race-free.
	FillPrologs       *metrics.Counter   // instrumented trace entries (prolog executions)
	FillRefs          *metrics.Counter   // profiled references recorded by hooks
	FillWallNs        *metrics.Counter   // prolog wall time (sampled estimator, see overhead.go)
	InstrumentWallNs  *metrics.Counter   // clone-and-patch wall time
	InstrumentLatency *metrics.Histogram // wall ns per instrument event
	AnalyzeCycles     *metrics.Counter   // modelled analysis cost charged to the guest
	AnalyzeWallNs     *metrics.Counter   // measured analysis wall (inline stall or sequencer busy)
	PrepLatency       *metrics.Histogram // wall ns per profile's stride discovery
	HistoryWallNs     *metrics.Counter   // window-capture wall time
	HistoryLatency    *metrics.Histogram // wall ns per captured window
	EmitWallNs        *metrics.Counter   // wire emit wall time (encoder + LiveShipper)
	EmitFrames        *metrics.Counter   // emitted invocation frames (+1 for the tail)
	EmitLatency       *metrics.Histogram // wall ns per emitted invocation
	GuestCycles       *metrics.Gauge     // mirror of the modelled guest cycle clock
	GuestOverheadCyc  *metrics.Gauge     // mirror of total modelled introspection overhead
	GuestWallNs       *metrics.Gauge     // run wall time (final after Finish)

	// Sampler (sampler.go): burst / reservoir / adaptation activity.
	BurstSkips        *metrics.Counter // trace entries skipped by the burst schedule
	ReservoirReplaced *metrics.Counter // rows that overwrote a reservoir resident
	ReservoirDrops    *metrics.Counter // rows dropped by the reservoir
	AdaptShrinks      *metrics.Counter // adaptation steps down (shrink/stretch)
	AdaptRearms       *metrics.Counter // phase-change re-arms back to full profiling
	AdaptLevel        *metrics.Gauge   // current adaptation level (value / high-water)
}

// analysisLatencyBuckets is the fixed histogram scheme for analyzer
// invocation latency: 1µs doubling through ~8s (24 buckets), wide enough
// for a whole-profile mini-simulation at either end.
var analysisLatencyBuckets = metrics.ExpBuckets(1_000, 24)

// stageLatencyBuckets is the scheme for the finer per-stage latencies
// (instrument, prep, history capture, wire emit): these stages run in the
// hundreds of nanoseconds to low milliseconds, so the scale starts at
// 250ns and doubles through ~2s.
var stageLatencyBuckets = metrics.ExpBuckets(250, 24)

func newMetrics() *Metrics {
	reg := metrics.NewRegistry()
	return &Metrics{
		reg:                  reg,
		TracesSeen:           reg.Counter("umi.traces.seen"),
		TracesInstrumented:   reg.Counter("umi.traces.instrumented"),
		TracesDeinstrumented: reg.Counter("umi.traces.deinstrumented"),
		TracesBarren:         reg.Counter("umi.traces.barren"),
		CandidatesKept:       reg.Counter("umi.candidates.kept"),
		CandidatesFiltered:   reg.Counter("umi.candidates.filtered"),
		ProfileFills:         reg.Counter("umi.profiles.fills"),
		GlobalFills:          reg.Counter("umi.profiles.global_fills"),
		ProfilesCollected:    reg.Counter("umi.profiles.collected"),
		AdaptiveAlphaSteps:   reg.Counter("umi.adaptive.alpha_steps"),
		AdaptiveFreqSteps:    reg.Counter("umi.adaptive.freq_steps"),
		Invocations:          reg.Counter("umi.analyzer.invocations"),
		Flushes:              reg.Counter("umi.analyzer.flushes"),
		SimulatedRefs:        reg.Counter("umi.analyzer.refs"),
		MiniSimAccesses:      reg.Counter("minisim.accesses"),
		MiniSimMisses:        reg.Counter("minisim.misses"),
		MiniSimEvictions:     reg.Counter("minisim.evictions"),
		AnalysisLatency:      reg.Histogram("umi.analyzer.latency_ns", analysisLatencyBuckets),
		Submits:              reg.Counter("umi.pool.submits"),
		SyncFallbacks:        reg.Counter("umi.pool.sync_fallbacks"),
		SeqBacklog:           reg.Gauge("umi.pool.seq_backlog"),
		RecycleQueue:         reg.Gauge("umi.pool.recycle_queue"),
		RecycleHits:          reg.Counter("umi.pool.recycle_hits"),
		RecycleMisses:        reg.Counter("umi.pool.recycle_misses"),
		PrepBusyNs:           reg.Counter("umi.pool.prep_busy_ns"),
		SeqBusyNs:            reg.Counter("umi.pool.seq_busy_ns"),
		FillPrologs:          reg.Counter("umi.stage.fill.prologs"),
		FillRefs:             reg.Counter("umi.stage.fill.refs"),
		FillWallNs:           reg.Counter("umi.stage.fill.wall_ns"),
		InstrumentWallNs:     reg.Counter("umi.stage.instrument.wall_ns"),
		InstrumentLatency:    reg.Histogram("umi.stage.instrument.latency_ns", stageLatencyBuckets),
		AnalyzeCycles:        reg.Counter("umi.stage.analyze.cycles"),
		AnalyzeWallNs:        reg.Counter("umi.stage.analyze.wall_ns"),
		PrepLatency:          reg.Histogram("umi.stage.prep.latency_ns", stageLatencyBuckets),
		HistoryWallNs:        reg.Counter("umi.stage.history.wall_ns"),
		HistoryLatency:       reg.Histogram("umi.stage.history.latency_ns", stageLatencyBuckets),
		EmitWallNs:           reg.Counter("umi.stage.emit.wall_ns"),
		EmitFrames:           reg.Counter("umi.stage.emit.frames"),
		EmitLatency:          reg.Histogram("umi.stage.emit.latency_ns", stageLatencyBuckets),
		GuestCycles:          reg.Gauge("umi.guest.cycles"),
		GuestOverheadCyc:     reg.Gauge("umi.guest.overhead_cycles"),
		GuestWallNs:          reg.Gauge("umi.guest.wall_ns"),
		BurstSkips:           reg.Counter("umi.sampler.burst_skips"),
		ReservoirReplaced:    reg.Counter("umi.sampler.reservoir_replaced"),
		ReservoirDrops:       reg.Counter("umi.sampler.reservoir_drops"),
		AdaptShrinks:         reg.Counter("umi.sampler.adapt_shrinks"),
		AdaptRearms:          reg.Counter("umi.sampler.adapt_rearms"),
		AdaptLevel:           reg.Gauge("umi.sampler.level"),
	}
}

// syncRIO mirrors the substrate's counters into the registry. Called on
// the guest thread (which owns the runtime) at snapshot points.
func (m *Metrics) syncRIO(rt *rio.Runtime) {
	c := rt.Counters()
	m.reg.Counter("rio.blocks_built").Store(uint64(c.BlocksBuilt))
	m.reg.Counter("rio.traces_built").Store(uint64(c.TracesBuilt))
	m.reg.Counter("rio.block_flushes").Store(uint64(c.BlockFlushes))
	m.reg.Counter("rio.dispatches").Store(c.Dispatches)
	m.reg.Counter("rio.indirect_lookups").Store(c.IndirectLookups)
	m.reg.Counter("rio.samples").Store(c.Samples)
	m.reg.Counter("rio.sample_hits").Store(c.SampleHits)
}

// syncCache mirrors the analyzer's logical-cache statistics. The
// invocation body calls it on the analyzer's owner after every
// invocation, so the minisim.* mirrors are current whenever the pipeline
// is drained.
func (m *Metrics) syncCache(a *Analyzer) {
	cs := a.cache.Stats()
	m.MiniSimAccesses.Store(cs.Accesses)
	m.MiniSimMisses.Store(cs.Misses)
	m.MiniSimEvictions.Store(cs.Evictions)
}

// FilterRate returns the fraction of candidate memory operations the
// instrumentor filtered out (§4.1; the paper reports ~80%), and false when
// no candidates were seen.
func FilterRate(s metrics.Snapshot) (float64, bool) {
	kept := s.Counter("umi.candidates.kept")
	filtered := s.Counter("umi.candidates.filtered")
	if kept+filtered == 0 {
		return 0, false
	}
	return float64(filtered) / float64(kept+filtered), true
}

// MetricsSnapshot returns a point-in-time copy of every runtime metric,
// synchronizing with the analysis pipeline first so analyzer-side values
// are complete through the last hand-off.
func (s *System) MetricsSnapshot() metrics.Snapshot {
	s.pool.drain()
	s.met.syncRIO(s.rt)
	s.syncGuestMirrors()
	return s.met.reg.Snapshot()
}

// LiveMetricsSnapshot copies the registry as-is, without draining the
// pipeline or mirroring substrate counters. Unlike MetricsSnapshot it is
// safe to call from any goroutine while the guest is mid-run — the
// registry is all atomics — which is what the HTTP introspection endpoint
// needs. Analyzer-side values may lag by in-flight invocations, and the
// rio.* / minisim.* mirrors hold their last synced values.
func (s *System) LiveMetricsSnapshot() metrics.Snapshot {
	return s.met.reg.Snapshot()
}

// Metrics exposes the live metric set (for tests and in-process sinks).
func (s *System) Metrics() *Metrics { return s.met }

// Snapshot copies the registry as-is. All registry cells are atomics, so
// it is safe from any goroutine while analysis runs — the replay/ingest
// analogue of LiveMetricsSnapshot.
func (m *Metrics) Snapshot() metrics.Snapshot { return m.reg.Snapshot() }

// FormatMetrics renders a snapshot as the CLI's self-overhead section:
// derived headline rates first (filter rate, analysis latency summary,
// queue high-water marks), then the full registry dump.
func FormatMetrics(snap metrics.Snapshot) string {
	var sb strings.Builder
	if rate, ok := FilterRate(snap); ok {
		fmt.Fprintf(&sb, "filter rate:      %.1f%% of candidate ops filtered (%d kept, %d filtered)\n",
			100*rate, snap.Counter("umi.candidates.kept"), snap.Counter("umi.candidates.filtered"))
	}
	lat := snap.Histogram("umi.analyzer.latency_ns")
	if lat.Count > 0 {
		fmt.Fprintf(&sb, "analysis latency: %d invocations, mean %.0fns p50=%dns p99=%dns max=%dns\n",
			lat.Count, lat.Mean(), lat.Quantile(0.50), lat.Quantile(0.99), lat.Max)
	}
	fmt.Fprintf(&sb, "queue pressure:   sequencer %d (max %d), recycle %d (max %d)\n",
		snap.Gauge("umi.pool.seq_backlog").Value, snap.Gauge("umi.pool.seq_backlog").Max,
		snap.Gauge("umi.pool.recycle_queue").Value, snap.Gauge("umi.pool.recycle_queue").Max)
	sb.WriteString(snap.String())
	return sb.String()
}
