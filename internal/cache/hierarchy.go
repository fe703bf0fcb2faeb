package cache

import "fmt"

// LevelStats accumulates demand-access statistics for one cache level.
type LevelStats struct {
	Accesses      uint64
	Misses        uint64
	ReadAccesses  uint64
	ReadMisses    uint64
	WriteAccesses uint64
	WriteMisses   uint64
	// PrefetchedHits counts demand hits on lines a prefetcher installed:
	// misses the prefetcher eliminated.
	PrefetchedHits uint64
	// LateHits counts demand hits on in-flight prefetches: partially
	// hidden misses.
	LateHits uint64
	// PrefetchIssued counts fills requested by prefetchers (hardware or
	// software) at this level.
	PrefetchIssued uint64
}

// MissRatio returns misses per access, the quantity the paper's
// correlation study compares ("dividing the number of L2 miss counts by the
// number of L2 references, for both loads and stores").
func (s LevelStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func (s LevelStats) String() string {
	return fmt.Sprintf("accesses=%d misses=%d (%.2f%%) pf-hits=%d late=%d pf-issued=%d",
		s.Accesses, s.Misses, 100*s.MissRatio(), s.PrefetchedHits, s.LateHits, s.PrefetchIssued)
}

// Latencies holds the stall model for a hierarchy. Stalls are cycles beyond
// the instruction's base cost. L1 hits are free (folded into base cost).
type Latencies struct {
	L2Hit  uint64 // L1 miss, L2 hit
	Memory uint64 // L2 miss, served from memory
	// LateFill is the residual stall when a demand access catches an
	// in-flight prefetch: the prefetch hid part of the memory latency.
	LateFill uint64
	// PrefetchIssue is the bandwidth/occupancy cost charged for every
	// prefetch fill issued; it models contention when software and
	// hardware prefetchers chase the same streams (§8: the combination
	// "increases contention for resources, and affects timeliness").
	PrefetchIssue uint64
}

// DefaultP4Latencies approximates the 3.06 GHz Pentium 4 of §6.
var DefaultP4Latencies = Latencies{L2Hit: 18, Memory: 210, LateFill: 70, PrefetchIssue: 2}

// DefaultK7Latencies approximates the 1.2 GHz AMD Athlon K7 of §6.
var DefaultK7Latencies = Latencies{L2Hit: 12, Memory: 140, LateFill: 50, PrefetchIssue: 2}

// PrefetchDelay is the in-flight window, in L2 logical ticks, before a
// prefetched line becomes ready. Demand accesses arriving sooner pay
// Latencies.LateFill.
const PrefetchDelay = 24

// Hierarchy is a two-level data-cache hierarchy with optional L2
// prefetchers. It implements vm.MemModel (Access) and vm.PrefetchModel
// (Prefetch), making it the "hardware" a guest machine runs on.
type Hierarchy struct {
	Name string
	L1   *Cache
	L2   *Cache
	// L1I, when non-nil, models the instruction cache (EnableICache);
	// instruction fetches then share the unified L2.
	L1I *Cache
	Lat Latencies

	// Prefetchers observe the L2 demand stream (hardware prefetch).
	Prefetchers []Prefetcher

	L1Stats  LevelStats
	L1IStats LevelStats
	L2Stats  LevelStats
}

// NewHierarchy builds a hierarchy from two level configs.
func NewHierarchy(name string, l1, l2 Config, lat Latencies) *Hierarchy {
	return &Hierarchy{Name: name, L1: New(l1), L2: New(l2), Lat: lat}
}

// NewP4 returns the Pentium 4 hierarchy of §6. withHWPrefetch attaches the
// adjacent-line and stride prefetchers (the paper measures both settings;
// adjacent-line is "always on" in the prefetching experiments).
func NewP4(withHWPrefetch bool) *Hierarchy {
	h := NewHierarchy("P4", P4L1D, P4L2, DefaultP4Latencies)
	if withHWPrefetch {
		h.Prefetchers = []Prefetcher{
			NewAdjacentLine(P4L2.LineSize),
			NewStrideStreams(P4L2.LineSize, 2),
		}
	}
	return h
}

// NewK7 returns the AMD K7 hierarchy of §6 (no hardware prefetch).
func NewK7() *Hierarchy {
	return NewHierarchy("K7", K7L1D, K7L2, DefaultK7Latencies)
}

// Access performs one demand access and returns the stall cycles. It
// implements vm.MemModel.
func (h *Hierarchy) Access(addr uint64, size uint8, write bool) uint64 {
	h.L1Stats.Accesses++
	if write {
		h.L1Stats.WriteAccesses++
	} else {
		h.L1Stats.ReadAccesses++
	}
	if res := h.L1.Access(addr); res.Hit {
		return 0
	}
	h.L1Stats.Misses++
	if write {
		h.L1Stats.WriteMisses++
	} else {
		h.L1Stats.ReadMisses++
	}

	h.L2Stats.Accesses++
	if write {
		h.L2Stats.WriteAccesses++
	} else {
		h.L2Stats.ReadAccesses++
	}
	res := h.L2.Access(addr)
	var stall uint64
	if res.Hit {
		stall = h.Lat.L2Hit
		if res.PrefetchedHit {
			h.L2Stats.PrefetchedHits++
		}
		if res.Late {
			h.L2Stats.LateHits++
			stall += h.Lat.LateFill
		}
	} else {
		h.L2Stats.Misses++
		if write {
			h.L2Stats.WriteMisses++
		} else {
			h.L2Stats.ReadMisses++
		}
		stall = h.Lat.Memory
	}
	stall += h.observePrefetchers(h.L2.LineOf(addr), !res.Hit)
	return stall
}

func (h *Hierarchy) observePrefetchers(lineAddr uint64, miss bool) uint64 {
	var stall uint64
	for _, pf := range h.Prefetchers {
		for _, target := range pf.Observe(lineAddr, miss) {
			if h.L2.Probe(target) {
				continue
			}
			h.L2.Install(target, PrefetchDelay)
			h.L2Stats.PrefetchIssued++
			stall += h.Lat.PrefetchIssue
		}
	}
	return stall
}

// AccessNT performs a non-temporal demand access (vm.NTModel): the line is
// cached in L1 only, never installed into L2, so streaming data cannot
// evict the L2-resident working set. Statistics count it like a normal
// access (the counters cannot tell, just as real PMUs cannot).
func (h *Hierarchy) AccessNT(addr uint64, size uint8, write bool) uint64 {
	h.L1Stats.Accesses++
	if write {
		h.L1Stats.WriteAccesses++
	} else {
		h.L1Stats.ReadAccesses++
	}
	if res := h.L1.Access(addr); res.Hit {
		return 0
	}
	h.L1Stats.Misses++
	if write {
		h.L1Stats.WriteMisses++
	} else {
		h.L1Stats.ReadMisses++
	}

	h.L2Stats.Accesses++
	if write {
		h.L2Stats.WriteAccesses++
	} else {
		h.L2Stats.ReadAccesses++
	}
	// Probe without installing: an L2 hit is still a hit, but a miss is
	// served straight from memory without polluting the L2.
	if h.L2.Probe(addr) {
		h.L2.Access(addr) // refresh recency for the genuine resident line
		return h.Lat.L2Hit
	}
	h.L2Stats.Misses++
	if write {
		h.L2Stats.WriteMisses++
	} else {
		h.L2Stats.ReadMisses++
	}
	return h.Lat.Memory
}

// Prefetch implements vm.PrefetchModel: a software prefetch instruction
// installs the line into L2 with the same in-flight delay as a hardware
// prefetch. Already-resident lines are untouched.
func (h *Hierarchy) Prefetch(addr uint64) {
	line := h.L2.LineOf(addr)
	if h.L2.Probe(line) {
		return
	}
	h.L2.Install(line, PrefetchDelay)
	h.L2Stats.PrefetchIssued++
}

// Flush invalidates all levels and resets prefetcher state (statistics
// are preserved).
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	h.L2.Flush()
	if h.L1I != nil {
		h.L1I.Flush()
	}
	for _, pf := range h.Prefetchers {
		pf.Reset()
	}
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("%s hierarchy\n  L1 %v\n  L2 %v", h.Name, h.L1Stats, h.L2Stats)
}
