package umi

import (
	"fmt"
	"math/bits"
	"sort"

	"umi/internal/cache"
)

// ProfileConsumer is a pluggable profile analysis. The paper's §2 calls
// the profile analyzer "customizable": the delinquent-load cache
// mini-simulator of §5 is one instance, and consumers registered with
// System.AddConsumer run over the same recorded address profiles at every
// analyzer invocation — working-set characterization, what-if cache
// exploration, pattern classification, or anything an online optimizer
// needs.
type ProfileConsumer interface {
	// Consume processes one live address profile during an analyzer
	// invocation.
	Consume(p *AddressProfile)
}

// AddConsumer registers an additional profile analysis.
func (s *System) AddConsumer(c ProfileConsumer) {
	s.consumers = append(s.consumers, c)
}

// ---------------------------------------------------------------------
// Working-set and reuse-distance characterization (the paper's intro:
// "locality enhancing optimizations can significantly benefit from
// accurate measurements of the working sets size and characterization of
// their predominant reference patterns").
// ---------------------------------------------------------------------

// WorkingSet measures, from the profiled bursts, the distinct cache lines
// touched and an LRU reuse-distance histogram with power-of-two buckets.
type WorkingSet struct {
	LineSize int

	// stack is the LRU stack of line addresses, most recent first.
	stack []uint64
	// seen tracks all distinct lines ever profiled.
	seen map[uint64]bool
	// Hist[i] counts references with reuse distance in [2^i, 2^(i+1));
	// Cold counts first touches.
	Hist [32]uint64
	Cold uint64
	Refs uint64
}

// NewWorkingSet returns a working-set consumer for the given line size.
func NewWorkingSet(lineSize int) *WorkingSet {
	return &WorkingSet{LineSize: lineSize, seen: make(map[uint64]bool)}
}

// Consume implements ProfileConsumer.
func (w *WorkingSet) Consume(p *AddressProfile) {
	for r := 0; r < p.Rows(); r++ {
		for c := 0; c < len(p.Ops); c++ {
			addr, ok := p.At(r, c)
			if !ok {
				continue
			}
			w.observe(addr &^ uint64(w.LineSize-1))
		}
	}
}

func (w *WorkingSet) observe(line uint64) {
	w.Refs++
	w.seen[line] = true
	// Stack distance: position in the LRU stack.
	for i, l := range w.stack {
		if l == line {
			copy(w.stack[1:i+1], w.stack[:i])
			w.stack[0] = line
			if i == 0 {
				w.Hist[0]++
			} else {
				w.Hist[bits.Len(uint(i))]++
			}
			return
		}
	}
	w.Cold++
	// Bound the stack: distances beyond 64K lines are "effectively cold".
	if len(w.stack) >= 1<<16 {
		w.stack = w.stack[:1<<16-1]
	}
	// Push in place, without allocating: the stack holds up to 64K lines.
	w.stack = append(w.stack, 0)
	copy(w.stack[1:], w.stack)
	w.stack[0] = line
}

// DistinctLines returns the working-set size, in lines, over everything
// profiled.
func (w *WorkingSet) DistinctLines() int { return len(w.seen) }

// DistinctBytes returns the working-set size in bytes.
func (w *WorkingSet) DistinctBytes() int { return len(w.seen) * w.LineSize }

// ReuseMedianBucket returns the power-of-two bucket holding the median
// non-cold reuse distance, and false when nothing was reused.
func (w *WorkingSet) ReuseMedianBucket() (int, bool) {
	var total uint64
	for _, n := range w.Hist {
		total += n
	}
	if total == 0 {
		return 0, false
	}
	var acc uint64
	for i, n := range w.Hist {
		acc += n
		if acc*2 >= total {
			return i, true
		}
	}
	return len(w.Hist) - 1, true
}

func (w *WorkingSet) String() string {
	med, ok := w.ReuseMedianBucket()
	medStr := "n/a"
	if ok {
		medStr = fmt.Sprintf("~2^%d lines", med)
	}
	return fmt.Sprintf("WorkingSet{%d refs, %d distinct lines (%d KiB), cold %d, median reuse %s}",
		w.Refs, w.DistinctLines(), w.DistinctBytes()/1024, w.Cold, medStr)
}

// ---------------------------------------------------------------------
// What-if cache exploration (§1.4: UMI "can be used to quickly evaluate
// speculative optimizations that consider multiple what-if scenarios";
// §5: results "far more dependent on the length of the address profiles
// than on the actual configuration of the simulated cache").
// ---------------------------------------------------------------------

// WhatIf mini-simulates every profile against several cache geometries in
// one pass, so an online optimizer can ask "would a bigger/smaller/more
// associative cache change this verdict?" without extra profiling runs.
type WhatIf struct {
	warmupRows int
	configs    []cache.Config
	caches     []*cache.Cache
	accesses   []uint64
	misses     []uint64
}

// NewWhatIf builds the explorer. warmupRows mirrors the main analyzer's
// warm-up skip.
func NewWhatIf(warmupRows int, configs ...cache.Config) *WhatIf {
	w := &WhatIf{
		warmupRows: warmupRows,
		configs:    configs,
		caches:     make([]*cache.Cache, len(configs)),
		accesses:   make([]uint64, len(configs)),
		misses:     make([]uint64, len(configs)),
	}
	for i, cfg := range configs {
		w.caches[i] = cache.New(cfg)
	}
	return w
}

// Consume implements ProfileConsumer.
func (w *WhatIf) Consume(p *AddressProfile) {
	for r := 0; r < p.Rows(); r++ {
		warm := r >= w.warmupRows
		for c := 0; c < len(p.Ops); c++ {
			addr, ok := p.At(r, c)
			if !ok {
				continue
			}
			for i, sim := range w.caches {
				hit := sim.Access(addr).Hit
				if !warm {
					continue
				}
				w.accesses[i]++
				if !hit {
					w.misses[i]++
				}
			}
		}
	}
}

// Result is one geometry's outcome.
type WhatIfResult struct {
	Config    cache.Config
	Accesses  uint64
	Misses    uint64
	MissRatio float64
}

// Results returns per-geometry outcomes, in construction order.
func (w *WhatIf) Results() []WhatIfResult {
	out := make([]WhatIfResult, len(w.configs))
	for i := range w.configs {
		r := WhatIfResult{Config: w.configs[i], Accesses: w.accesses[i], Misses: w.misses[i]}
		if r.Accesses > 0 {
			r.MissRatio = float64(r.Misses) / float64(r.Accesses)
		}
		out[i] = r
	}
	return out
}

// ---------------------------------------------------------------------
// Reference-pattern classification.
// ---------------------------------------------------------------------

// Pattern classifies one operation's reference behaviour.
type Pattern int

// Reference patterns.
const (
	PatternUnknown   Pattern = iota
	PatternConstant          // same address every execution
	PatternStrided           // one dominant stride
	PatternIrregular         // no dominant stride (pointer chasing, hashing)
)

var patternNames = [...]string{"unknown", "constant", "strided", "irregular"}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return "pattern(?)"
}

// ClassifyColumn labels one operation's recorded address sequence.
func ClassifyColumn(addrs []uint64) Pattern {
	if len(addrs) < 3 {
		return PatternUnknown
	}
	constant := true
	for _, a := range addrs[1:] {
		if a != addrs[0] {
			constant = false
			break
		}
	}
	if constant {
		return PatternConstant
	}
	stride, frac := DominantStride(addrs)
	if stride != 0 && frac >= 0.6 {
		return PatternStrided
	}
	return PatternIrregular
}

// PatternCensus tallies per-operation patterns across profiles.
type PatternCensus struct {
	perOp map[uint64]Pattern
}

// NewPatternCensus returns an empty census.
func NewPatternCensus() *PatternCensus {
	return &PatternCensus{perOp: make(map[uint64]Pattern)}
}

// Consume implements ProfileConsumer.
func (pc *PatternCensus) Consume(p *AddressProfile) {
	for c := 0; c < len(p.Ops); c++ {
		col := p.Column(c)
		if pat := ClassifyColumn(col); pat != PatternUnknown {
			pc.perOp[p.Ops[c]] = pat
		}
	}
}

// Of returns the recorded pattern for an operation.
func (pc *PatternCensus) Of(op uint64) Pattern { return pc.perOp[op] }

// Counts returns the number of operations per pattern.
func (pc *PatternCensus) Counts() map[Pattern]int {
	out := make(map[Pattern]int)
	for _, p := range pc.perOp {
		out[p]++
	}
	return out
}

// Summary renders the census deterministically.
func (pc *PatternCensus) Summary() string {
	counts := pc.Counts()
	pats := make([]Pattern, 0, len(counts))
	for p := range counts {
		pats = append(pats, p)
	}
	sort.Slice(pats, func(i, j int) bool { return pats[i] < pats[j] })
	s := "patterns:"
	for _, p := range pats {
		s += fmt.Sprintf(" %v=%d", p, counts[p])
	}
	return s
}
