package umi

import (
	"fmt"
	"sort"
	"time"

	"umi/internal/cache"
	"umi/internal/tracelog"
)

// OpStat accumulates the mini-simulated behaviour of one memory operation
// across all analyzer invocations (post-warmup accesses only).
type OpStat struct {
	PC       uint64
	IsLoad   bool
	Accesses uint64
	Misses   uint64
}

// MissRatio is the operation's simulated miss ratio.
func (s *OpStat) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// StrideInfo is the dominant stride discovered for an operation and the
// fraction of successive-reference deltas it accounts for.
type StrideInfo struct {
	Stride     int64
	Confidence float64
}

// Analyzer is the paper's profile analyzer: a fast cache simulator over
// recorded address profiles. A single logical cache is shared across
// invocations and flushed when the gap since the last invocation exceeds
// the configured limit (§5).
type Analyzer struct {
	cfg   *Config
	cache *cache.Cache
	// met, when non-nil, receives invocation/flush/ref counts as they
	// happen (Attach sets it; analyzers built standalone in tests run
	// unmetered). On the asynchronous path these increments execute on the
	// sequencer goroutine — they are atomics, safe to snapshot from the
	// guest thread at any time.
	met *Metrics
	// tlog, when non-nil, receives analyzer lifecycle events (cache
	// flushes). Same ownership story as met: inline-path emits happen on
	// the guest thread, pipeline-path emits on the sequencer.
	tlog *tracelog.Log
	// hist, when non-nil, receives one WindowSummary per invocation via
	// captureWindow. Same ownership story again: capture runs on whichever
	// thread owns the analyzer, so history state needs no extra locking
	// beyond the ring's own snapshot mutex.
	hist *History

	lastRun   uint64 // guest cycles at last invocation
	ranBefore bool

	// Cumulative results.
	Invocations   int
	SimulatedRefs uint64
	Flushes       int
	opStats       map[uint64]*OpStat
	delinquent    map[uint64]bool
	strides       map[uint64]StrideInfo
	columns       map[uint64][]uint64 // last recorded column per delinquent load
	totalAcc      uint64
	totalMiss     uint64

	// Per-invocation scratch, keyed by column, reused across profiles.
	invAcc  []uint64
	invMiss []uint64
}

// NewAnalyzer builds an analyzer for the config.
func NewAnalyzer(cfg *Config) *Analyzer {
	return &Analyzer{
		cfg:        cfg,
		cache:      cache.New(cfg.MiniSimCache),
		opStats:    make(map[uint64]*OpStat),
		delinquent: make(map[uint64]bool),
		strides:    make(map[uint64]StrideInfo),
		columns:    make(map[uint64][]uint64),
	}
}

// BeginInvocation starts one analyzer invocation at the given guest cycle
// count, flushing the logical cache if the configured gap has elapsed.
// Non-monotonic cycle counts (a harness reset reusing the analyzer against
// a rewound clock) are treated as a zero gap: the subtraction is unsigned,
// and without the ordering guard a backwards step would wrap to a huge gap
// and spuriously flush on every invocation.
func (a *Analyzer) BeginInvocation(nowCycles uint64) {
	a.Invocations++
	if a.met != nil {
		a.met.Invocations.Inc()
	}
	if a.ranBefore && nowCycles > a.lastRun && nowCycles-a.lastRun > a.cfg.FlushCycleGap {
		a.cache.Flush()
		a.Flushes++
		if a.met != nil {
			a.met.Flushes.Inc()
		}
		a.tlog.Emit(tracelog.Event{Type: tracelog.EvCacheFlush,
			Cycles: nowCycles, Arg1: nowCycles - a.lastRun})
	}
	a.lastRun = nowCycles
	a.ranBefore = true
}

// Reset returns the analyzer to its just-constructed state so a harness
// can reuse one across runs: cumulative results are cleared and the
// logical cache is rewound (cache.Reset, not just Flush, so the LRU clock
// restarts too). The invocation clock also restarts, so the first
// BeginInvocation after a Reset never flushes regardless of the new run's
// cycle counter.
func (a *Analyzer) Reset() {
	a.cache.Reset()
	a.lastRun = 0
	a.ranBefore = false
	a.Invocations = 0
	a.SimulatedRefs = 0
	a.Flushes = 0
	a.opStats = make(map[uint64]*OpStat)
	a.delinquent = make(map[uint64]bool)
	a.strides = make(map[uint64]StrideInfo)
	a.columns = make(map[uint64][]uint64)
	a.totalAcc, a.totalMiss = 0, 0
	a.hist.reset()
}

// invocation is one analyzer invocation's worth of profiles, already in
// the fixed PC-sorted merge order with the delinquency threshold each was
// captured with, stamped with the guest cycle count at hand-off so the
// flush-gap check sees the same clock on every path.
type invocation struct {
	cycles uint64
	// cost is the modelled analysis cost, computed once at hand-off
	// (newInvocation); the analyzer.end span reports it on every path.
	cost   uint64
	profs  []*AddressProfile
	alphas []float64
	// settle, when non-nil, runs on the analyzer's owner right after
	// profile i is analyzed and consumed: the inline path's tune, reset
	// and deinstrument step, or the pipeline's hand-back of the buffer.
	settle func(i int)
	// barrier, when non-nil, marks a pipeline synchronization point
	// instead of an invocation: the sequencer closes it without touching
	// the analyzer.
	barrier chan struct{}
}

// newInvocation stamps one hand-off with its modelled cost: the fixed
// charge plus the per-reference charge for every recorded cell, the
// reference count the mini-simulation will replay. It is known before any
// profile is simulated, so the guest is charged at hand-off whichever
// path then analyzes.
func newInvocation(cfg *Config, cycles uint64, profs []*AddressProfile, alphas []float64) invocation {
	cost := cfg.AnalyzerFixed
	for _, p := range profs {
		cost += cfg.AnalyzerPerRef * uint64(p.Recorded())
	}
	return invocation{cycles: cycles, cost: cost, profs: profs, alphas: alphas}
}

// invoke is the one invocation body. The System's inline path, the
// pipeline's sequencer and Replay all run it, on whichever goroutine owns
// the analyzer: BeginInvocation at the hand-off stamp; per profile
// AnalyzeProfile, the consumers and inv.settle; then the window capture,
// the latency and wall observations, the minisim.* mirrors and the
// analyzer.end span. The span carries the hand-off cycles and the
// modelled cost, a deterministic (ts, dur) at any width. It returns the
// measured wall time. The analyzer must be metered.
func (a *Analyzer) invoke(inv invocation, consumers []ProfileConsumer) uint64 {
	start := time.Now()
	refs0, miss0 := a.SimulatedRefs, a.totalMiss
	a.BeginInvocation(inv.cycles)
	for i, p := range inv.profs {
		a.AnalyzeProfile(p, inv.alphas[i])
		for _, c := range consumers {
			c.Consume(p)
		}
		if inv.settle != nil {
			inv.settle(i)
		}
	}
	a.captureWindow(inv.cycles, consumers)
	wall := uint64(time.Since(start))
	a.met.AnalysisLatency.Observe(wall)
	a.met.AnalyzeWallNs.Add(wall)
	a.met.syncCache(a)
	a.tlog.Emit(tracelog.Event{Type: tracelog.EvAnalyzerEnd,
		Cycles: inv.cycles, Dur: inv.cost,
		Arg1: a.SimulatedRefs - refs0, Arg2: a.totalMiss - miss0,
		Arg3: uint64(len(a.delinquent))})
	return wall
}

// AnalyzeProfile mini-simulates one address profile: rows in recording
// order, operations in trace order, skipping the warm-up rows for miss
// accounting. Loads whose miss ratio in this profile exceeds alpha are
// labelled delinquent, and each load column's dominant stride is merged
// into the stride table. The merge visits columns in trace order, so a
// fixed profile submission order gives a fixed merge order.
func (a *Analyzer) AnalyzeProfile(p *AddressProfile, alpha float64) {
	nOps := len(p.Ops)
	if nOps == 0 || p.Rows() == 0 {
		return
	}
	if cap(a.invAcc) < nOps {
		a.invAcc = make([]uint64, nOps)
		a.invMiss = make([]uint64, nOps)
	}
	a.invAcc = a.invAcc[:nOps]
	a.invMiss = a.invMiss[:nOps]
	for i := 0; i < nOps; i++ {
		a.invAcc[i], a.invMiss[i] = 0, 0
	}

	// Replay the recorded cells in recording order — rows in order,
	// operations in trace order — through the logical cache. Warm-up rows
	// are simulated only; every later recorded cell is charged to its
	// column.
	refs := uint64(0)
	for r := 0; r < p.Rows(); r++ {
		counted := r >= a.cfg.WarmupRows
		for c, addr := range p.cells[r*nOps : (r+1)*nOps] {
			if addr == noAddr {
				continue
			}
			refs++
			hit := a.cache.Access(addr).Hit
			if !counted {
				continue
			}
			a.invAcc[c]++
			if !hit {
				a.invMiss[c]++
			}
		}
	}
	a.SimulatedRefs += refs
	if a.met != nil {
		a.met.SimulatedRefs.Add(refs)
	}

	for c := 0; c < nOps; c++ {
		pc := p.Ops[c]
		st := a.opStats[pc]
		if st == nil {
			st = &OpStat{PC: pc, IsLoad: p.IsLoadOp[c]}
			a.opStats[pc] = st
		}
		st.Accesses += a.invAcc[c]
		st.Misses += a.invMiss[c]
		a.totalAcc += a.invAcc[c]
		a.totalMiss += a.invMiss[c]
		if p.IsLoadOp[c] && a.invAcc[c] > 0 {
			ratio := float64(a.invMiss[c]) / float64(a.invAcc[c])
			if ratio > alpha {
				a.delinquent[pc] = true
				// Keep the raw column so optimizers can tune against the
				// recorded history (e.g. prefetch distance selection),
				// gathered into the analyzer-owned slice: the only column a
				// profile's analysis copies is a delinquent load's.
				a.columns[pc] = p.columnInto(a.columns[pc][:0], c)
			}
		}
	}
	a.mergeStrides(p)
}

// mergeStrides runs stride discovery, which feeds the prefetcher (§8):
// each load column's dominant stride, read in place off the profile's
// cells, replaces the recorded one when at least as confident. It is the
// overhead report's prep stage, timed into the prep cells when the
// analyzer is metered; its wall is also part of the analyze stage's.
func (a *Analyzer) mergeStrides(p *AddressProfile) {
	var start time.Time
	if a.met != nil {
		start = time.Now()
	}
	n := len(p.Ops)
	cells := p.cells[:p.rowUsed*n]
	for c, pc := range p.Ops {
		if !p.IsLoadOp[c] {
			continue
		}
		if stride, frac := dominantStride(cells, c, n); frac >= 0.5 && stride != 0 {
			if prev, ok := a.strides[pc]; !ok || frac >= prev.Confidence {
				a.strides[pc] = StrideInfo{Stride: stride, Confidence: frac}
			}
		}
	}
	if a.met != nil {
		ns := uint64(time.Since(start))
		a.met.PrepBusyNs.Add(ns)
		a.met.PrepLatency.Observe(ns)
	}
}

// Delinquent returns the predicted delinquent load set P (live map; do not
// mutate).
func (a *Analyzer) Delinquent() map[uint64]bool { return a.delinquent }

// Strides returns discovered per-load dominant strides.
func (a *Analyzer) Strides() map[uint64]StrideInfo { return a.strides }

// Column returns the most recent recorded address column for a delinquent
// load, if any — the raw history optimizers tune against.
func (a *Analyzer) Column(pc uint64) ([]uint64, bool) {
	col, ok := a.columns[pc]
	return col, ok
}

// OpStats returns cumulative per-operation simulation statistics.
func (a *Analyzer) OpStats() map[uint64]*OpStat { return a.opStats }

// MissRatio is the overall simulated (post-warmup) miss ratio, the UMI
// quantity correlated against hardware counters in Table 4.
func (a *Analyzer) MissRatio() float64 {
	if a.totalAcc == 0 {
		return 0
	}
	return float64(a.totalMiss) / float64(a.totalAcc)
}

// TopMissers returns operations ordered by simulated miss count, most
// first (for reports).
func (a *Analyzer) TopMissers(n int) []*OpStat {
	out := make([]*OpStat, 0, len(a.opStats))
	for _, s := range a.opStats {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (a *Analyzer) String() string {
	return fmt.Sprintf("umi.Analyzer{%d invocations, %d refs, %d flushes, miss ratio %.4f}",
		a.Invocations, a.SimulatedRefs, a.Flushes, a.MissRatio())
}
