package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// Equivalence suite for the demand paths. Access must agree byte-exactly
// with the general path (accessSlow, pinned via coldActive) on every
// access. The configs cover the narrow SWAR body (2-way), the sentinel-tag
// 8-way body, and wide packed-timestamp LRU (16-way, served by accessSlow
// itself), and every policy runs over each geometry.

var equivConfigs = []Config{
	{Name: "narrow2", Size: 1024, Assoc: 2, LineSize: 64},      // SWAR ages
	{Name: "fused8", Size: 512 * 1024, Assoc: 8, LineSize: 64}, // sentinel LRU8
	{Name: "wide16", Size: 64 * 1024, Assoc: 16, LineSize: 64}, // packed timestamps
}

// equivAddr draws a demand address with heavy set reuse: the line pool is
// 4x the cache so hits, fills, and evictions all occur, plus occasional
// sub-line offset noise so tag extraction is exercised off line boundaries.
func equivAddr(rng *rand.Rand, cfg Config) uint64 {
	lines := cfg.Size / cfg.LineSize * 4
	addr := uint64(rng.Intn(lines)) * uint64(cfg.LineSize)
	if rng.Intn(4) == 0 {
		addr += uint64(rng.Intn(cfg.LineSize))
	}
	return addr
}

// TestFastSlowEquivalenceAllPolicies pins Access against the general path
// for every policy and geometry: 20k random demand accesses after a shared
// install/consume pre-history must produce identical results, statistics,
// and residency.
func TestFastSlowEquivalenceAllPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		for _, base := range equivConfigs {
			cfg := base
			cfg.Policy = pol
			t.Run(fmt.Sprintf("%s/%s", pol, base.Name), func(t *testing.T) {
				fast := New(cfg)
				slow := New(cfg)
				for _, c := range []*Cache{fast, slow} {
					c.Install(0x1000, 0)
					c.Access(0x1000) // consume: cold state drains, fused path re-arms
				}
				slow.coldActive = true
				slow.refast()
				if slow.fast != fpSlow {
					t.Fatal("pinned reference cache must dispatch to the general path")
				}
				if pol == LRU && cfg.Assoc <= 8 && fast.fast == fpSlow {
					t.Fatalf("%s/%s: fused path not engaged after drain", pol, base.Name)
				}

				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 20_000; i++ {
					addr := equivAddr(rng, cfg)
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
			})
		}
	}
}

// TestDemandPathSelector pins which body each shipped geometry takes, so
// an edit to refast cannot quietly send the Pentium 4 hierarchy or the
// default mini-simulator to the general path: every equivalence test
// would stay green, only slower. Live prefetch state always selects the
// general path, and draining it re-arms the geometry's own body.
func TestDemandPathSelector(t *testing.T) {
	withPolicy := func(cfg Config, pol Policy) Config {
		cfg.Policy = pol
		cfg.Name += "/" + pol.String()
		return cfg
	}
	for _, tc := range []struct {
		cfg  Config
		want uint8
	}{
		{P4L1D, fpLRUNarrow},
		{K7L1D, fpLRUNarrow},
		{P4L2, fpLRU8},
		{K7L2, fpSlow}, // 16-way LRU
		{withPolicy(P4L2, FIFO), fpSlow},
		{withPolicy(P4L2, PLRU), fpSlow},
		{withPolicy(P4L2, Random), fpSlow},
	} {
		c := New(tc.cfg)
		if c.fast != tc.want {
			t.Errorf("%s: selector %d, want %d", tc.cfg.Name, c.fast, tc.want)
		}
		c.Install(0x1000, 0)
		if c.fast != fpSlow {
			t.Errorf("%s: selector %d with prefetch state live, want fpSlow", tc.cfg.Name, c.fast)
		}
		c.Access(0x1000) // consume the prefetch mark: cold state drains
		if c.PrefetchResident() != 0 || c.fast != tc.want {
			t.Errorf("%s: after drain selector %d (prefetch resident %d), want %d",
				tc.cfg.Name, c.fast, c.PrefetchResident(), tc.want)
		}
	}
}
