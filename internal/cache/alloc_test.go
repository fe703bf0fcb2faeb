//go:build !race

package cache

import "testing"

// The mini-simulator's hot path must not allocate: every simulated
// reference funnels through Access, and a single allocation per probe would
// dominate a billion-reference harness run. Guarded by !race because the
// race detector's instrumentation skews allocation accounting; make check
// runs these tests in a separate non-race pass.

func TestAccessZeroAllocs(t *testing.T) {
	c := New(P4L2)
	// Warm: fill every set so steady state includes evictions.
	for i := uint64(0); i < uint64(P4L2.Size/P4L2.LineSize)*2; i++ {
		c.Access(i * 64)
	}
	addr := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(addr)
		addr += 64
	}); n != 0 {
		t.Errorf("Access allocated %v times per op on the LRU fast path", n)
	}
}

func TestAccessSlowPathZeroAllocs(t *testing.T) {
	for _, pol := range []Policy{FIFO, Random, PLRU} {
		c := New(Config{Name: "t", Size: 32 * 1024, Assoc: 4, LineSize: 64, Policy: pol})
		c.Install(0x40, 4) // prefetch state live: forces the general path
		addr := uint64(0)
		if n := testing.AllocsPerRun(1000, func() {
			c.Access(addr)
			addr += 64
		}); n != 0 {
			t.Errorf("%v: Access allocated %v times per op", pol, n)
		}
	}
}
