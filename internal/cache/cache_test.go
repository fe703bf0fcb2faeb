package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var tiny = Config{Name: "tiny", Size: 1024, Assoc: 2, LineSize: 64} // 8 sets

func TestConfigValidate(t *testing.T) {
	good := []Config{tiny, P4L1D, P4L2, K7L1D, K7L2}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	bad := []Config{
		{Name: "zero"},
		{Name: "odd-line", Size: 1024, Assoc: 2, LineSize: 48},
		{Name: "indivisible", Size: 1000, Assoc: 2, LineSize: 64},
		{Name: "npo2-sets", Size: 3 * 64 * 2, Assoc: 2, LineSize: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted invalid config", c)
		}
	}
}

func TestPaperConfigs(t *testing.T) {
	if P4L2.Sets() != 1024 {
		t.Errorf("P4 L2 sets = %d, want 1024", P4L2.Sets())
	}
	if K7L2.Sets() != 256 {
		t.Errorf("K7 L2 sets = %d, want 256", K7L2.Sets())
	}
	if P4L1D.Sets() != 32 {
		t.Errorf("P4 L1D sets = %d, want 32", P4L1D.Sets())
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := New(tiny)
	if res := c.Access(0x1000); res.Hit {
		t.Error("first access must miss")
	}
	if res := c.Access(0x1000); !res.Hit {
		t.Error("second access must hit")
	}
	if res := c.Access(0x1004); !res.Hit {
		t.Error("same-line access must hit")
	}
	if res := c.Access(0x1040); res.Hit {
		t.Error("next-line access must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny) // 2-way, 8 sets, 64B lines: set stride is 512B
	a0 := uint64(0x0000)
	a1 := a0 + 512  // same set
	a2 := a0 + 1024 // same set
	c.Access(a0)
	c.Access(a1)
	c.Access(a0) // a1 is now LRU
	c.Access(a2) // evicts a1
	if !c.Probe(a0) {
		t.Error("a0 must survive (MRU)")
	}
	if c.Probe(a1) {
		t.Error("a1 must be evicted (LRU)")
	}
	if !c.Probe(a2) {
		t.Error("a2 must be resident")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := New(tiny)
	c.Access(0x0)
	c.Access(0x200) // same set, 2-way now full; 0x0 is LRU
	for i := 0; i < 10; i++ {
		c.Probe(0x0) // must not refresh LRU
	}
	c.Access(0x400) // should evict 0x0
	if c.Probe(0x0) {
		t.Error("probe must not update recency")
	}
}

func TestInstallPrefetch(t *testing.T) {
	c := New(tiny)
	c.Install(0x1000, 0)
	res := c.Access(0x1000)
	if !res.Hit || !res.PrefetchedHit {
		t.Errorf("access after install = %+v, want prefetched hit", res)
	}
	// Second access: prefetched flag consumed.
	if res := c.Access(0x1000); res.PrefetchedHit {
		t.Error("prefetched flag must clear after first demand hit")
	}
}

func TestInstallInFlight(t *testing.T) {
	c := New(tiny)
	c.Install(0x1000, 5) // ready 5 ticks from now
	res := c.Access(0x1000)
	if !res.Hit || !res.Late {
		t.Errorf("early access = %+v, want late hit", res)
	}
	if res := c.Access(0x1000); res.Late {
		t.Error("late flag must clear once paid")
	}

	c2 := New(tiny)
	c2.Install(0x2000, 2)
	c2.Access(0x0)
	c2.Access(0x40)
	c2.Access(0x80) // 3 ticks elapse; fill complete
	if res := c2.Access(0x2000); res.Late {
		t.Error("fill must be ready after delay has elapsed")
	}
}

func TestInstallIdempotentWhenResident(t *testing.T) {
	c := New(tiny)
	c.Access(0x1000)
	c.Install(0x1000, 10)
	res := c.Access(0x1000)
	if res.PrefetchedHit || res.Late {
		t.Errorf("install over resident line must be a no-op, got %+v", res)
	}
}

// TestReissuedPrefetchAcceleratesFill is the regression test for the
// Install/readyAt bug: a prefetch re-issued for an in-flight line with a
// shorter delay must pull the completion time forward (the early return used
// to leave the stale later deadline in place, over-reporting Late hits) —
// and a longer re-issue must never push it back.
func TestReissuedPrefetchAcceleratesFill(t *testing.T) {
	c := New(tiny)
	c.Install(0x1000, 100) // speculative far-ahead prefetch
	c.Access(0x0)
	c.Access(0x40)
	c.Install(0x1000, 2) // re-issued much closer to use
	c.Access(0x80)
	c.Access(0xc0)
	c.Access(0x100) // 3 ticks since the re-issue: the clamped fill is done
	if res := c.Access(0x1000); !res.Hit || res.Late {
		t.Errorf("re-issued shorter prefetch must accelerate the fill, got %+v", res)
	}

	c2 := New(tiny)
	c2.Install(0x2000, 1)
	c2.Install(0x2000, 100) // farther re-issue: must not delay the fill
	c2.Access(0x0)
	c2.Access(0x40)
	if res := c2.Access(0x2000); !res.Hit || res.Late {
		t.Errorf("re-issue with longer delay must not push readyAt back, got %+v", res)
	}
}

// TestStrideReissueLateFill drives the clamp through StrideStreams, the way
// the hierarchy's late-fill model exercises it: a trained stream at depth 2
// issues each line twice (first at distance 2, then at distance 1), and the
// nearer re-issue — modelled with a proportionally shorter delay — must
// govern the fill time.
func TestStrideReissueLateFill(t *testing.T) {
	// 256 sets x 4 ways: roomy enough that the filler accesses below cannot
	// evict the in-flight stream target before the probe.
	c := New(Config{Name: "t", Size: 64 * 1024, Assoc: 4, LineSize: 64})
	pf := NewStrideStreams(64, 2)
	install := func(lineAddr uint64, miss bool) {
		for i, target := range pf.Observe(lineAddr, miss) {
			// Delay scales with prefetch distance: a line fetched d lines
			// ahead has d access-times to complete.
			c.Install(target, uint64(i+1)*8)
		}
	}
	// Train a unit-stride miss stream far from the probe addresses.
	base := uint64(1 << 16)
	for i := uint64(0); i < 8; i++ {
		addr := base + i*64
		miss := !c.Access(addr).Hit
		install(addr, miss)
	}
	// The last Observe issued lines base+8*64 (distance 1, delay 8) and
	// base+9*64 (distance 2, delay 16); the previous one had already issued
	// base+8*64 at distance 2 with the longer delay. The re-issue must have
	// clamped it: 9 further ticks is enough for the distance-1 deadline but
	// not the stale distance-2 one.
	for i := uint64(0); i < 9; i++ {
		c.Access(uint64(0x100000) + i*64)
	}
	res := c.Access(base + 8*64)
	if !res.Hit || !res.PrefetchedHit {
		t.Fatalf("stream target must be a prefetched hit, got %+v", res)
	}
	if res.Late {
		t.Error("re-issued stream prefetch must have accelerated the in-flight fill")
	}
}

// firstDivergence drives both caches through the same access sequence and
// reports the first index where their hit/miss outcomes differ (-1: none).
func firstDivergence(a, b *Cache, addrs []uint64) int {
	for i, addr := range addrs {
		if a.Access(addr).Hit != b.Access(addr).Hit {
			return i
		}
	}
	return -1
}

func replaySequence() []uint64 {
	// A mix of streaming (conflict-heavy) and reused addresses so every
	// policy exercises victim selection.
	var addrs []uint64
	for i := 0; i < 4096; i++ {
		addrs = append(addrs, uint64(i)*64, uint64(i%37)*64, uint64(i*17)*4096)
	}
	return addrs
}

// TestFlushClearsPLRUState is the regression test for the Flush/PLRU bug: a
// flushed-then-refilled PLRU cache must evict exactly like one whose sets
// were never populated. Flush invalidates every line, so the replacement
// tree bits describing pre-flush recency must be discarded with them.
func TestFlushClearsPLRUState(t *testing.T) {
	cfg := Config{Name: "plru", Size: 32 * 1024, Assoc: 4, LineSize: 64, Policy: PLRU}
	dirty := New(cfg)
	// Contaminate the tree bits with a skewed access history: repeated
	// touches of high ways in every set.
	for i := 0; i < 4096; i++ {
		dirty.Access(uint64(i%11) * 64 * uint64(cfg.Sets()))
		dirty.Access(uint64(i*13) * 64)
	}
	dirty.Flush()
	if n := dirty.Resident(); n != 0 {
		t.Fatalf("%d lines resident after flush", n)
	}
	// Replay an eviction-heavy sequence on the flushed cache and on a
	// never-populated one; the hit/miss streams must be identical. (The
	// clocks differ, but PLRU victim selection reads only the tree bits.)
	if i := firstDivergence(dirty, New(cfg), replaySequence()); i >= 0 {
		t.Errorf("flushed PLRU cache diverged from a fresh one at access %d", i)
	}
}

func TestFlush(t *testing.T) {
	c := New(tiny)
	for i := uint64(0); i < 16; i++ {
		c.Access(i * 64)
	}
	if c.Resident() == 0 {
		t.Fatal("expected resident lines")
	}
	c.Flush()
	if c.Resident() != 0 {
		t.Errorf("Resident after flush = %d, want 0", c.Resident())
	}
	if res := c.Access(0); res.Hit {
		t.Error("access after flush must miss")
	}
}

// Property: the number of resident lines never exceeds capacity, and a
// just-accessed line is always resident.
func TestResidencyQuick(t *testing.T) {
	c := New(tiny)
	capacity := tiny.Sets() * tiny.Assoc
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a) % (1 << 20)
			c.Access(addr)
			if !c.Probe(addr) {
				return false
			}
			if c.Resident() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits in one set's ways never misses after
// the first pass, regardless of access order (true LRU, no pathological
// replacement).
func TestLRUNoThrashWithinAssoc(t *testing.T) {
	c := New(tiny)
	lines := []uint64{0x0, 0x200} // same set, assoc = 2
	for _, a := range lines {
		c.Access(a)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := lines[r.Intn(len(lines))]
		if res := c.Access(a); !res.Hit {
			t.Fatalf("iteration %d: unexpected miss on %#x", i, a)
		}
	}
}

func TestAdjacentLinePrefetcher(t *testing.T) {
	pf := NewAdjacentLine(64)
	got := pf.Observe(0x1000, true)
	if len(got) != 1 || got[0] != 0x1040 {
		t.Errorf("Observe(0x1000) = %#x, want [0x1040]", got)
	}
	got = pf.Observe(0x1040, true)
	if len(got) != 1 || got[0] != 0x1000 {
		t.Errorf("Observe(0x1040) = %#x, want [0x1000]", got)
	}
	if got := pf.Observe(0x2000, false); got != nil {
		t.Errorf("hit must not trigger adjacent prefetch, got %#x", got)
	}
}

func TestStridePrefetcherDetectsStream(t *testing.T) {
	pf := NewStrideStreams(64, 2)
	// Unit-stride miss stream: 0, 64, 128, ...
	var issued []uint64
	for i := uint64(0); i < 6; i++ {
		issued = pf.Observe(i*64, true)
	}
	if len(issued) != 2 {
		t.Fatalf("trained stream must issue depth=2 prefetches, got %v", issued)
	}
	if issued[0] != 6*64 || issued[1] != 7*64 {
		t.Errorf("prefetch targets = %#x, want next two lines", issued)
	}
}

func TestStridePrefetcherNegativeStride(t *testing.T) {
	pf := NewStrideStreams(64, 1)
	var issued []uint64
	for i := 10; i >= 5; i-- {
		issued = pf.Observe(uint64(i)*64, true)
	}
	if len(issued) != 1 || issued[0] != 4*64 {
		t.Errorf("descending stream: prefetch = %#x, want [0x100]", issued)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	pf := NewStrideStreams(64, 2)
	r := rand.New(rand.NewSource(3))
	issued := 0
	for i := 0; i < 200; i++ {
		// Addresses far apart: no stream should train.
		addr := uint64(r.Intn(1<<20)) * 4096
		issued += len(pf.Observe(addr, true))
	}
	if issued > 10 {
		t.Errorf("random misses issued %d prefetches; expected almost none", issued)
	}
}

func TestStridePrefetcherStreamLimit(t *testing.T) {
	pf := NewStrideStreams(64, 1)
	// Allocate more streams than MaxStreams; must not grow unbounded.
	for i := 0; i < 100; i++ {
		pf.Observe(uint64(i)*1<<16, true)
	}
	if len(pf.streams) != MaxStreams {
		t.Errorf("stream table = %d entries, want %d", len(pf.streams), MaxStreams)
	}
}

func TestHierarchySequentialSweep(t *testing.T) {
	h := NewP4(false)
	// Sweep 4 MiB: every new line misses in L2 (footprint >> 512 KiB).
	for addr := uint64(0); addr < 4<<20; addr += 64 {
		h.Access(addr, 8, false)
	}
	if h.L2Stats.Misses != h.L2Stats.Accesses {
		t.Errorf("cold sweep: L2 misses = %d, accesses = %d; want equal",
			h.L2Stats.Misses, h.L2Stats.Accesses)
	}
	if h.L1Stats.Misses != h.L1Stats.Accesses {
		t.Errorf("cold sweep at line granularity: L1 misses = %d, accesses = %d",
			h.L1Stats.Misses, h.L1Stats.Accesses)
	}
}

func TestHierarchyPrefetchReducesMisses(t *testing.T) {
	run := func(hw bool) LevelStats {
		h := NewP4(hw)
		for rep := 0; rep < 4; rep++ {
			for addr := uint64(0); addr < 4<<20; addr += 64 {
				h.Access(addr, 8, false)
			}
		}
		return h.L2Stats
	}
	base := run(false)
	pf := run(true)
	if pf.Misses >= base.Misses {
		t.Errorf("HW prefetch must cut sequential misses: with=%d without=%d",
			pf.Misses, base.Misses)
	}
	if pf.PrefetchedHits == 0 {
		t.Error("expected useful prefetches")
	}
}

func TestHierarchyStallModel(t *testing.T) {
	h := NewP4(false)
	s1 := h.Access(0x100000, 8, false) // cold: memory
	if s1 != h.Lat.Memory {
		t.Errorf("cold stall = %d, want %d", s1, h.Lat.Memory)
	}
	s2 := h.Access(0x100000, 8, false) // L1 hit
	if s2 != 0 {
		t.Errorf("L1 hit stall = %d, want 0", s2)
	}
	// Evict from L1 (8 KiB, 4-way, 32 sets): fill set with conflicting lines.
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x100000+i*8192, 8, false)
	}
	s3 := h.Access(0x100000, 8, false) // L1 miss, L2 hit
	if s3 != h.Lat.L2Hit {
		t.Errorf("L2 hit stall = %d, want %d", s3, h.Lat.L2Hit)
	}
}

func TestSoftwarePrefetchHidesLatency(t *testing.T) {
	h := NewP4(false)
	h.Prefetch(0x40000)
	// Let the in-flight window pass.
	for i := uint64(0); i < PrefetchDelay+1; i++ {
		h.Access(0x800000+i*64, 8, false)
	}
	stall := h.Access(0x40000, 8, false)
	if stall != h.Lat.L2Hit {
		t.Errorf("prefetched access stall = %d, want L2 hit %d", stall, h.Lat.L2Hit)
	}
	if h.L2Stats.PrefetchedHits != 1 {
		t.Errorf("PrefetchedHits = %d, want 1", h.L2Stats.PrefetchedHits)
	}
}

func TestLatePrefetchPaysPartialStall(t *testing.T) {
	h := NewP4(false)
	h.Prefetch(0x40000)
	stall := h.Access(0x40000, 8, false) // immediately: in flight
	want := h.Lat.L2Hit + h.Lat.LateFill
	if stall != want {
		t.Errorf("late prefetch stall = %d, want %d", stall, want)
	}
	if h.L2Stats.LateHits != 1 {
		t.Errorf("LateHits = %d, want 1", h.L2Stats.LateHits)
	}
}

func TestMissRatio(t *testing.T) {
	var s LevelStats
	if s.MissRatio() != 0 {
		t.Error("empty stats must have ratio 0")
	}
	s.Accesses = 200
	s.Misses = 50
	if got := s.MissRatio(); got != 0.25 {
		t.Errorf("MissRatio = %v, want 0.25", got)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewP4(true)
	for addr := uint64(0); addr < 1<<20; addr += 64 {
		h.Access(addr, 8, false)
	}
	h.Flush()
	if h.L2.Resident() != 0 || h.L1.Resident() != 0 {
		t.Error("Flush must empty both levels")
	}
	if h.L2Stats.Accesses == 0 {
		t.Error("Flush must preserve statistics")
	}
}

// TestColdFastPathReEntry is the regression test for permanent fast-path
// loss: coldLive counts resident prefetch state exactly, so the fused LRU
// demand path re-engages the moment the last prefetched or in-flight line
// is consumed or evicted (it used to stay off for the lifetime of the
// cache after the first Install).
func TestColdFastPathReEntry(t *testing.T) {
	c := New(tiny) // 2-way, 8 sets: set stride 512B, set 0 holds 0x1000/0x1200
	if c.coldActive || c.PrefetchResident() != 0 {
		t.Fatal("fresh cache must start on the fast path")
	}
	c.Install(0x1000, 0)
	c.Install(0x1200, 0)
	if !c.coldActive || c.PrefetchResident() != 2 {
		t.Fatalf("after installs: coldActive=%v resident=%d, want true/2",
			c.coldActive, c.PrefetchResident())
	}

	// Demand hit consumes one prefetch mark.
	if res := c.Access(0x1000); !res.Hit || !res.PrefetchedHit {
		t.Fatalf("prefetched access = %+v", res)
	}
	if c.PrefetchResident() != 1 || !c.coldActive {
		t.Fatalf("after consume: resident=%d coldActive=%v, want 1/true",
			c.PrefetchResident(), c.coldActive)
	}

	// Two demand misses to fresh lines in the same set evict both resident
	// lines, including the remaining prefetched one: fast path re-engages.
	c.Access(0x1400)
	c.Access(0x1600)
	if c.PrefetchResident() != 0 || c.coldActive {
		t.Fatalf("after evictions: resident=%d coldActive=%v, want 0/false",
			c.PrefetchResident(), c.coldActive)
	}

	// An in-flight (non-prefetched-hit-yet, future readyAt) install counts
	// too, and a late demand hit retires it.
	c.Install(0x2000, 100)
	if c.PrefetchResident() != 1 {
		t.Fatalf("in-flight install not counted: %d", c.PrefetchResident())
	}
	if res := c.Access(0x2000); !res.Late {
		t.Fatalf("early demand hit = %+v, want late", res)
	}
	if c.PrefetchResident() != 0 || c.coldActive {
		t.Fatal("late hit must retire the in-flight entry and re-arm the fast path")
	}

	// A prefetch evicting another prefetch keeps the count exact (dec then
	// inc), and Flush clears everything at once.
	c2 := New(tiny)
	c2.Install(0x3000, 0)
	c2.Install(0x3200, 0) // both ways of set 0 now carry prefetch marks
	c2.Install(0x3400, 0) // same set: must evict one of them
	if c2.PrefetchResident() != 2 {
		t.Fatalf("prefetch-over-prefetch count = %d, want 2", c2.PrefetchResident())
	}
	c2.Flush()
	if c2.PrefetchResident() != 0 || c2.coldActive {
		t.Fatal("Flush must clear all prefetch state")
	}
}

// TestColdFastPathEquivalence pins the fast path's contract byte-exactly:
// once prefetch state has drained, the fused demand path must produce the
// same results, statistics, and replacement decisions the general path
// would. Two identical caches run the same random demand mix — one with
// coldActive pinned on so every access takes accessSlow — and must agree
// on every access.
func TestColdFastPathEquivalence(t *testing.T) {
	fast := New(tiny)
	slow := New(tiny)
	// Exercise the drain path on both so they share pre-history.
	for _, c := range []*Cache{fast, slow} {
		c.Install(0x1000, 0)
		c.Access(0x1000) // consume: coldLive back to 0
	}
	// Pin the reference cache off the fast path. coldLive stays 0, so its
	// cold entries remain all-zero — exactly the fast path's precondition.
	// refast() must follow: Access dispatches on the precomputed selector
	// byte, and without the recompute the pinned cache would still take the
	// fused path, comparing the fast path against itself.
	slow.coldActive = true
	slow.refast()
	if slow.fast != fpSlow {
		t.Fatal("pinned reference cache must dispatch to the general path")
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20_000; i++ {
		addr := uint64(rng.Intn(64)) * 64 // 64 lines over 8 sets: heavy reuse
		if rng.Intn(4) == 0 {
			addr += uint64(rng.Intn(64)) // sub-line offset noise
		}
		rf := fast.Access(addr)
		rs := slow.Access(addr)
		if rf != rs {
			t.Fatalf("access %d (%#x): fast=%+v slow=%+v", i, addr, rf, rs)
		}
	}
	if fast.Stats() != slow.Stats() {
		t.Fatalf("stats diverged: fast=%+v slow=%+v", fast.Stats(), slow.Stats())
	}
	if fast.Resident() != slow.Resident() {
		t.Fatalf("residency diverged: %d vs %d", fast.Resident(), slow.Resident())
	}
}

// TestColdLaneAudit is the fused-fast-path bookkeeping audit: across every
// policy, random Flush → prefetch-Install → demand-Access interleavings
// must keep coldLive exactly equal to a ground-truth scan of the cold
// lane, keep coldActive mirroring it, never run a fused path while cold
// state exists, and (LRU, the only policy with fused bodies) engage one
// exactly while none does. A stale count in either direction would let a
// fused demand path run while prefetch state is resident (skipping its
// bookkeeping) or pin the cache on the slow path forever.
func TestColdLaneAudit(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		cfg := tiny
		cfg.Policy = pol
		cfg.Name = "audit-" + pol.String()
		c := New(cfg)

		check := func(step int, what string) {
			t.Helper()
			ground := 0
			for _, cd := range c.cold {
				if cd.prefetched || cd.readyAt != 0 {
					ground++
				}
			}
			if c.coldLive != ground || c.PrefetchResident() != ground {
				t.Fatalf("%s step %d (%s): coldLive=%d resident=%d, ground truth %d",
					pol, step, what, c.coldLive, c.PrefetchResident(), ground)
			}
			if c.coldActive != (ground > 0) {
				t.Fatalf("%s step %d (%s): coldActive=%v with %d cold entries",
					pol, step, what, c.coldActive, ground)
			}
			fused := c.fast != fpSlow
			if c.coldActive && fused {
				t.Fatalf("%s step %d (%s): fused path engaged with cold state resident",
					pol, step, what)
			}
			if !c.coldActive && pol == LRU && !fused {
				t.Fatalf("%s step %d (%s): fused path not re-engaged with no cold state",
					pol, step, what)
			}
		}

		// The specific sequence the issue calls out: Flush, then prefetch,
		// then demand traffic that consumes and evicts the prefetched lines
		// back to a clean fast-path state.
		c.Flush()
		check(0, "flush")
		c.Install(0x1000, 0)
		c.Install(0x1200, 0)
		check(0, "prefetch")
		c.Access(0x1000) // consume one mark
		check(0, "consume")
		c.Access(0x1400) // evictions flush the rest out of set 0
		c.Access(0x1600)
		check(0, "evict")

		rng := uint64(0x1234567)
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		for step := 1; step <= 4000; step++ {
			switch next(8) {
			case 0:
				c.Flush()
				check(step, "flush")
			case 1, 2:
				c.Install(next(1<<13)&^63, next(3)*40)
				check(step, "install")
			default:
				c.Access(next(1<<13) &^ 63)
				check(step, "access")
			}
		}

		// A Flush after a prefetch burst must leave the whole cold lane
		// zero: Flush clears it only while coldLive says it holds state.
		for i := 0; i < 64; i++ {
			c.Install(next(1<<13)&^63, next(3)*40)
		}
		if c.PrefetchResident() == 0 {
			t.Fatalf("%s: prefetch burst left no cold state", pol)
		}
		c.Flush()
		check(-1, "flush after burst")
		for i, cd := range c.cold {
			if cd != (coldLine{}) {
				t.Fatalf("%s: cold entry %d = %+v after Flush", pol, i, cd)
			}
		}
	}
}

// TestColdLaneAllocatedOnFirstPrefetch: only a prefetching install
// allocates the cold lane (16 B per line, 128 KB of a P4 L2's 208 KB).
// Demand traffic, flushes and a prefetch of an already-resident line leave
// a cache without one; the first real prefetch allocates it whole, and
// the prefetched line then behaves as it always has.
func TestColdLaneAllocatedOnFirstPrefetch(t *testing.T) {
	c := New(P4L2)
	if c.cold != nil {
		t.Fatal("a fresh P4 L2 allocated a cold lane")
	}
	for i := uint64(0); i < 1<<16; i++ {
		c.Access(i * 4160)
	}
	c.Flush()
	c.Access(0x1000)
	c.Install(0x1000, 5) // resident and complete: nothing to record
	if c.cold != nil {
		t.Fatal("demand traffic, Flush or a resident-line Install allocated the cold lane")
	}
	c.Install(0x8000, 5)
	if got, want := len(c.cold), P4L2.Sets()*P4L2.Assoc; got != want {
		t.Fatalf("first prefetch allocated %d cold entries, want one per line (%d)", got, want)
	}
	if c.PrefetchResident() != 1 || c.fast != fpSlow {
		t.Fatalf("after one prefetch: resident %d, fast path %d", c.PrefetchResident(), c.fast)
	}
	if res := c.Access(0x8000); !res.Hit || !res.PrefetchedHit || !res.Late {
		t.Errorf("demand hit on the in-flight prefetch = %+v, want a late prefetched hit", res)
	}
	if c.PrefetchResident() != 0 || c.fast == fpSlow {
		t.Errorf("consumed prefetch left resident %d, fast path %d", c.PrefetchResident(), c.fast)
	}
}
