package cache

import "testing"

// FuzzCacheConfig throws random geometries and access sequences at the
// cache and checks the structural invariants the rest of the stack leans
// on: Validate rejects unrealizable shapes before New can panic, and
// Access agrees exactly with the general path.
func FuzzCacheConfig(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(3), uint8(0), []byte{0, 1, 2, 3, 0, 1, 255, 128})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), []byte{9, 9, 9})
	f.Add(uint8(5), uint8(3), uint8(2), uint8(2), []byte{1, 2, 4, 8, 16, 32, 64, 128})
	f.Add(uint8(2), uint8(1), uint8(1), uint8(3), []byte{7, 7, 7, 7, 200, 100})
	// 4-way LRU (the narrow body), 16 sets: five and six lines cycle
	// through sets 0 and 1, so fills, hits and LRU evictions all occur.
	f.Add(uint8(4), uint8(3), uint8(3), uint8(0),
		[]byte{0, 32, 64, 96, 0, 32, 128, 0, 2, 34, 66, 98, 130, 2, 160, 96, 0})
	// 16-way LRU (wide, packed timestamps), 4 sets: seventeen lines of set
	// 0, then re-references of evicted and resident lines.
	f.Add(uint8(2), uint8(15), uint8(3), uint8(0),
		[]byte{0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 0, 8, 136, 8, 32, 0})
	f.Fuzz(func(t *testing.T, setExp, assocRaw, lineExp, polRaw uint8, addrBytes []byte) {
		cfg := Config{
			Name:     "fuzz",
			LineSize: 1 << (3 + lineExp%6), // 8..256 bytes
			Assoc:    1 + int(assocRaw%16),
			Policy:   Policy(polRaw % 4),
		}
		sets := 1 << (setExp % 10) // 1..512 sets
		cfg.Size = sets * cfg.Assoc * cfg.LineSize
		if err := cfg.Validate(); err != nil {
			// e.g. PLRU with non-power-of-two associativity: rejected
			// geometry must never reach New.
			return
		}

		// Widen the byte stream into addresses that straddle sets and tags.
		seq := make([]uint64, len(addrBytes))
		for i, b := range addrBytes {
			seq[i] = uint64(b) * uint64(cfg.LineSize) / 2
		}

		fresh := New(cfg)
		want := make([]AccessResult, len(seq))
		for i, a := range seq {
			want[i] = fresh.Access(a)
		}
		st := fresh.Stats()
		if st.Accesses != uint64(len(seq)) {
			t.Fatalf("accesses %d, want %d", st.Accesses, len(seq))
		}
		if st.Misses > st.Accesses {
			t.Fatalf("misses %d exceed accesses %d", st.Misses, st.Accesses)
		}
		if st.Evictions > st.Misses {
			t.Fatalf("evictions %d exceed demand misses %d", st.Evictions, st.Misses)
		}

		// Fast ≡ slow: a cache pinned to the general path (cold entries stay
		// all zero, so it is exactly the fused bodies' precondition) must
		// replay the same results and statistics.
		slow := New(cfg)
		slow.coldActive = true
		slow.refast()
		for i, a := range seq {
			if got := slow.Access(a); got != want[i] {
				t.Fatalf("access %d: general path %+v, Access %+v", i, got, want[i])
			}
		}
		if slow.Stats() != st {
			t.Fatalf("stats diverged: general path %+v, Access %+v", slow.Stats(), st)
		}
	})
}
