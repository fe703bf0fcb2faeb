package umi

import (
	"fmt"
	"sort"

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
	// prep is the inline path's reusable preparation buffer (the pipeline
	// hands in precomputed preps instead and recycles its own buffers).
	prep prepBuf
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

// colPrep is the stateless half of one column's analysis: its dominant
// stride, found straight off the profile's cells. The pipeline's
// preparation workers compute these concurrently; only the cache
// simulation and the merge, which touch shared analyzer state, stay on
// the sequencer.
type colPrep struct {
	stride int64
	frac   float64
}

// prepBuf owns the reusable per-column colPrep entries one profile
// preparation fills. A warm prepBuf makes preparation allocation-free; the
// pipeline recycles one per in-flight job, and the inline analyzer path
// keeps its own.
type prepBuf struct {
	preps []colPrep
}

// prepare computes the stateless per-column work for a profile: the
// dominant stride of every load column. It reads only the profile and is
// safe to run concurrently with preparations of other profiles — but not
// with further recording into this one. The returned slice is owned by the
// prepBuf and valid until the next prepare call on it.
func (b *prepBuf) prepare(p *AddressProfile) []colPrep {
	n := len(p.Ops)
	if cap(b.preps) < n {
		b.preps = append(b.preps[:cap(b.preps)], make([]colPrep, n-cap(b.preps))...)
	}
	b.preps = b.preps[:n]
	cells := p.cells[:p.rowUsed*n]
	for c := 0; c < n; c++ {
		pr := &b.preps[c]
		if !p.IsLoadOp[c] {
			pr.stride, pr.frac = 0, 0
			continue
		}
		pr.stride, pr.frac = dominantStride(cells, c, n)
	}
	return b.preps
}

// AnalyzeProfile mini-simulates one address profile: rows in recording
// order, operations in trace order, skipping the warm-up rows for miss
// accounting. Loads whose miss ratio in this profile exceeds alpha are
// labelled delinquent. It returns the modelled analysis cost in cycles.
func (a *Analyzer) AnalyzeProfile(p *AddressProfile, alpha float64) uint64 {
	return a.analyzeWithPrep(p, alpha, nil)
}

// analyzeWithPrep is AnalyzeProfile with the stateless column work
// optionally precomputed (nil means compute inline). Results are identical
// either way; the merge visits columns in trace order, so a fixed profile
// submission order gives a fixed merge order.
func (a *Analyzer) analyzeWithPrep(p *AddressProfile, alpha float64, preps []colPrep) uint64 {
	nOps := len(p.Ops)
	if nOps == 0 || p.Rows() == 0 {
		return 0
	}
	if preps == nil {
		preps = a.prep.prepare(p)
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
		// Stride discovery feeds the prefetcher (§8).
		if p.IsLoadOp[c] {
			if stride, frac := preps[c].stride, preps[c].frac; frac >= 0.5 && stride != 0 {
				if prev, ok := a.strides[pc]; !ok || frac >= prev.Confidence {
					a.strides[pc] = StrideInfo{Stride: stride, Confidence: frac}
				}
			}
		}
	}
	return a.cfg.AnalyzerPerRef * refs
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
