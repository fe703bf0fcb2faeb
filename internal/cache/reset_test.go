package cache

import "testing"

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

func TestResetMatchesFreshCache(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random, PLRU} {
		cfg := Config{Name: "t", Size: 32 * 1024, Assoc: 4, LineSize: 64, Policy: pol}
		used := New(cfg)
		addrs := replaySequence()
		for _, a := range addrs {
			used.Access(a)
		}
		used.Reset()
		if n := used.Resident(); n != 0 {
			t.Fatalf("%v: %d lines resident after Reset", pol, n)
		}
		// A Reset cache must replay exactly like a newly constructed one:
		// same contents (none), same clock, same policy state.
		if i := firstDivergence(used, New(cfg), addrs); i >= 0 {
			t.Errorf("%v: reset cache diverged from a fresh one at access %d", pol, i)
		}
	}
}
