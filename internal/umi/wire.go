package umi

import (
	"fmt"
	"slices"
	"time"

	"umi/internal/cache"
	"umi/internal/wire"
)

// umi-profile/v1 bridging: conversions between the in-process types and
// the wire records (internal/wire), the System-side emit hook plumbing,
// and the header↔Config mapping that makes a stream self-describing. The
// contract throughout is that emit is observational — an emitting run
// reports exactly what a silent run reports — and that a stream carries
// everything the analyzer consumed, so a replay reproduces the analyzer's
// end state byte for byte.

// WireHeader captures the analyzer-relevant configuration (plus the
// informational workload/machine names) into a stream header. A replay
// built from this header analyzes exactly as the capture process did.
func WireHeader(cfg *Config, workload, machine string) wire.Header {
	return wire.Header{
		Workload:        workload,
		Machine:         machine,
		CacheName:       cfg.MiniSimCache.Name,
		CacheSize:       uint64(cfg.MiniSimCache.Size),
		CacheAssoc:      uint64(cfg.MiniSimCache.Assoc),
		CacheLine:       uint64(cfg.MiniSimCache.LineSize),
		CachePolicy:     uint8(cfg.MiniSimCache.Policy),
		WarmupRows:      uint64(cfg.WarmupRows),
		FlushCycleGap:   cfg.FlushCycleGap,
		AnalyzerPerRef:  cfg.AnalyzerPerRef,
		AnalyzerFixed:   cfg.AnalyzerFixed,
		HistoryWindows:  int64(cfg.HistoryWindows),
		PhaseMissDelta:  cfg.PhaseMissDelta,
		PhaseChurnDelta: cfg.PhaseChurnDelta,
	}
}

// ConfigFromWireHeader validates a received header and rebuilds the
// analyzer-relevant Config a replay needs. Fields that only steer guest
// execution (sampling, thresholds, costs charged to the guest) stay zero:
// a replay has no guest.
func ConfigFromWireHeader(h wire.Header) (Config, error) {
	const maxCacheBytes = 1 << 30
	if h.CacheSize == 0 || h.CacheSize > maxCacheBytes {
		return Config{}, fmt.Errorf("wire header: cache size %d out of range (1..%d)", h.CacheSize, maxCacheBytes)
	}
	if h.CacheAssoc > 64 || h.CacheLine > 1<<16 {
		return Config{}, fmt.Errorf("wire header: cache geometry assoc=%d line=%d out of range", h.CacheAssoc, h.CacheLine)
	}
	cc := cache.Config{
		Name:     h.CacheName,
		Size:     int(h.CacheSize),
		Assoc:    int(h.CacheAssoc),
		LineSize: int(h.CacheLine),
		Policy:   cache.Policy(h.CachePolicy),
	}
	if err := cc.Validate(); err != nil {
		return Config{}, fmt.Errorf("wire header: %w", err)
	}
	if h.WarmupRows > wire.MaxProfileRows {
		return Config{}, fmt.Errorf("wire header: warmup rows %d out of range", h.WarmupRows)
	}
	if h.HistoryWindows > wire.MaxHistoryWindows {
		return Config{}, fmt.Errorf("wire header: history windows %d out of range", h.HistoryWindows)
	}
	hw := int(h.HistoryWindows)
	if h.HistoryWindows < 0 {
		hw = -1 // any negative value disables capture; normalize
	}
	return Config{
		MiniSimCache:    cc,
		WarmupRows:      int(h.WarmupRows),
		FlushCycleGap:   h.FlushCycleGap,
		AnalyzerPerRef:  h.AnalyzerPerRef,
		AnalyzerFixed:   h.AnalyzerFixed,
		HistoryWindows:  hw,
		PhaseMissDelta:  h.PhaseMissDelta,
		PhaseChurnDelta: h.PhaseChurnDelta,
	}, nil
}

// ReplayConfigKey renders the analyzer-relevant header fields as a
// comparable string: two shards may merge into one replay session only
// when their keys match (the informational workload/machine names are
// free to differ across a fleet).
func ReplayConfigKey(h wire.Header) string {
	return fmt.Sprintf("%s/%d/%d/%d/p%d w%d g%d r%d f%d h%d md%x cd%x",
		h.CacheName, h.CacheSize, h.CacheAssoc, h.CacheLine, h.CachePolicy,
		h.WarmupRows, h.FlushCycleGap, h.AnalyzerPerRef, h.AnalyzerFixed,
		h.HistoryWindows, h.PhaseMissDelta, h.PhaseChurnDelta)
}

// wireProfile views a recorded profile as a wire record. The encoder
// copies everything out during the call, so aliasing the live profile's
// backing arrays is safe — and keeps emit allocation-free.
func wireProfile(p *AddressProfile, alpha float64) wire.Profile {
	return wire.Profile{
		Alpha:  alpha,
		PCs:    p.Ops,
		IsLoad: p.IsLoadOp,
		Rows:   p.rowUsed,
		Cells:  p.cells[:p.rowUsed*len(p.Ops)],
	}
}

// profileFromWire adopts a decoded profile record, taking ownership of
// its slices: zero-copy from frame to analyzer input. A replay's
// sequencer hands the cells back to the decoder once they are analyzed.
func profileFromWire(wp *wire.Profile) *AddressProfile {
	return &AddressProfile{
		Ops:      wp.PCs,
		IsLoadOp: wp.IsLoad,
		cells:    wp.Cells,
		rowCap:   wp.Rows,
		rowUsed:  wp.Rows,
		recorded: wp.Recorded,
	}
}

// windowToWire and windowFromWire map WindowSummary onto its frame, field
// for field.
func windowToWire(w WindowSummary) wire.Window {
	return wire.Window{
		Invocation:      w.Invocation,
		Cycles:          w.Cycles,
		Refs:            w.Refs,
		Accesses:        w.Accesses,
		Misses:          w.Misses,
		WindowMissRatio: w.WindowMissRatio,
		CumMissRatio:    w.CumMissRatio,
		Delinquent:      w.Delinquent,
		NewDelinquent:   w.NewDelinquent,
		DelinquentHash:  w.DelinquentHash,
		Jaccard:         w.Jaccard,
		PhaseChange:     w.PhaseChange,
		StridedLoads:    w.StridedLoads,
		TopStride:       w.TopStride,
		WSLines:         w.WSLines,
	}
}

func windowFromWire(w *wire.Window) WindowSummary {
	return WindowSummary{
		Invocation:      w.Invocation,
		Cycles:          w.Cycles,
		Refs:            w.Refs,
		Accesses:        w.Accesses,
		Misses:          w.Misses,
		WindowMissRatio: w.WindowMissRatio,
		CumMissRatio:    w.CumMissRatio,
		Delinquent:      w.Delinquent,
		NewDelinquent:   w.NewDelinquent,
		DelinquentHash:  w.DelinquentHash,
		Jaccard:         w.Jaccard,
		PhaseChange:     w.PhaseChange,
		StridedLoads:    w.StridedLoads,
		TopStride:       w.TopStride,
		WSLines:         w.WSLines,
	}
}

// EnableWireEmit attaches a stream encoder: from now on every analyzer
// invocation is recorded (hand-off cycle stamp plus each live profile,
// in the fixed merge order) before it is analyzed. Emission runs on the
// guest thread with the invocation's own cycle stamp, and emit-on runs
// report exactly what emit-off runs report. Call before
// the runtime starts; pair with EmitWireTail after Finish. Encoder errors
// are sticky and surface from the encoder's Flush.
func (s *System) EnableWireEmit(enc *wire.Encoder) { s.wenc = enc }

// emitInvocation records one invocation's inputs, if emit is enabled.
// Emit-stage wall attribution covers the encoder and, through it, any
// synchronous LiveShipper write — everything the guest thread pays for
// telemetry; the stage's modelled cost is 0 (emission is observational).
func (s *System) emitInvocation(cycles uint64, live []*traceState) {
	if s.wenc == nil {
		return
	}
	start := time.Now()
	s.wenc.Invocation(cycles, len(live))
	for _, ts := range live {
		s.wenc.Profile(wireProfile(ts.profile, ts.alpha))
	}
	ns := uint64(time.Since(start))
	s.met.EmitWallNs.Add(ns)
	s.met.EmitLatency.Observe(ns)
	s.met.EmitFrames.Inc()
}

// EmitWireTail writes the stream tail after Finish: the framed phase
// history and the trailer. The System fills the trailer from its own
// runtime (guest and total cycles, instructions, the instrument-event
// count, the candidate and trace PC sets) and from h, the run's hardware
// model (raw L2 accesses, misses and evictions).
func (s *System) EmitWireTail(enc *wire.Encoder, h *cache.Hierarchy) {
	hv := s.History()
	start := time.Now()
	enc.History(wire.HistoryMeta{
		Total:        hv.Total,
		PhaseChanges: hv.PhaseChanges,
		Cap:          hv.Cap,
		Windows:      len(hv.Windows),
	})
	for _, w := range hv.Windows {
		enc.Window(windowToWire(w))
	}
	enc.Trailer(wire.Trailer{
		InstrumentEvents: uint64(s.instrumentEvents),
		GuestCycles:      s.now(),
		TotalCycles:      s.rt.TotalCycles(),
		Instrs:           s.rt.M.Instrs,
		HWAccesses:       h.L2Stats.Accesses,
		HWMisses:         h.L2Stats.Misses,
		HWEvictions:      h.L2.Stats().Evictions,
		CandidatePCs:     sortedPCs(s.candidatePCs),
		TracePCs:         sortedPCs(s.traces),
	})
	ns := uint64(time.Since(start))
	s.met.EmitWallNs.Add(ns)
	s.met.EmitLatency.Observe(ns)
	s.met.EmitFrames.Inc()
}

// sortedPCs returns a PC-keyed map's keys in ascending order: the wire
// trailer's canonical PC-set layout.
func sortedPCs[V any](set map[uint64]V) []uint64 {
	pcs := make([]uint64, 0, len(set))
	for pc := range set {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	return pcs
}
