//go:build !race

package umi

import (
	"testing"

	"umi/internal/cache"
)

// The analyzer replays billions of references over a harness run; its
// steady state — warm scratch buffers, stable operation set — must not
// allocate per profile. Guarded by !race because the race detector's
// instrumentation skews allocation accounting; make check runs these tests
// in a separate non-race pass.
func TestAnalyzeProfileZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(cache.P4L2)
	an := NewAnalyzer(&cfg)
	ops := []uint64{0x10, 0x20, 0x30, 0x40}
	isLoad := []bool{true, true, false, true}
	prof := NewAddressProfile(ops, isLoad, 256)
	fill := func() {
		prof.Reset()
		for r := 0; r < 256; r++ {
			row, _ := prof.OpenRow()
			for c := range ops {
				// Strided and conflict-heavy: misses dominate, so the
				// delinquent-column retention path runs every invocation.
				prof.Record(row, c, uint64(r)*4096+uint64(c)*64)
			}
		}
	}
	fill()
	cycles := uint64(0)
	runOnce := func() {
		cycles += 1000
		an.BeginInvocation(cycles)
		an.AnalyzeProfile(prof, 0.5)
	}
	for i := 0; i < 3; i++ {
		runOnce() // warm scratch: columns, per-op stats
	}
	if len(an.Delinquent()) == 0 {
		t.Fatal("test profile must produce delinquent loads")
	}
	if n := testing.AllocsPerRun(100, runOnce); n != 0 {
		t.Errorf("AnalyzeProfile allocated %v times per invocation in steady state", n)
	}
}

// TestAnalyzeProfileSparseZeroAllocs is the sparse-replay twin of the test
// above: the replay loop must skip unrecorded cells and stay equally
// allocation-free once warm.
func TestAnalyzeProfileSparseZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(cache.P4L2)
	an := NewAnalyzer(&cfg)
	ops := []uint64{0x10, 0x20, 0x30, 0x40}
	isLoad := []bool{true, true, false, true}
	prof := NewAddressProfile(ops, isLoad, 256)
	prof.Reset()
	for r := 0; r < 256; r++ {
		row, _ := prof.OpenRow()
		for c := range ops {
			if (r+c)%5 == 0 {
				continue // hole: trace exited before this op ran
			}
			prof.Record(row, c, uint64(r)*4096+uint64(c)*64)
		}
	}
	if prof.Recorded() == prof.Rows()*len(ops) {
		t.Fatal("profile must be sparse to exercise unrecorded cells")
	}
	cycles := uint64(0)
	runOnce := func() {
		cycles += 1000
		an.BeginInvocation(cycles)
		an.AnalyzeProfile(prof, 0.5)
	}
	for i := 0; i < 3; i++ {
		runOnce()
	}
	if n := testing.AllocsPerRun(100, runOnce); n != 0 {
		t.Errorf("sparse AnalyzeProfile allocated %v times per invocation in steady state", n)
	}
}
