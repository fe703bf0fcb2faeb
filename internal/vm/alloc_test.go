//go:build !race

package vm

import (
	"testing"

	"umi/internal/isa"
	"umi/internal/program"
)

// Every guest load and store goes through Memory.Read or Memory.Write;
// once a page is resident neither may allocate. Guarded by !race because
// the race detector's instrumentation skews allocation accounting; make
// check runs these tests in a separate non-race pass.
func TestMemoryReadWriteZeroAllocs(t *testing.T) {
	m := NewMemory()
	// In-page, page-straddling, top of the page table, and map-fallback
	// addresses.
	addrs := [...]uint64{0x1000_0000, 0x1000_0ffc, 1<<32 - 4, 1 << 40}
	sizes := [...]uint8{1, 2, 4, 8}
	for _, a := range addrs {
		m.Write(a, 8, 1)
	}
	pages := m.PageCount()
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			for _, size := range sizes {
				m.Write(a, size, m.Read(a, size)+1)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("resident Read/Write: %v allocs per run, want 0", allocs)
	}
	if m.PageCount() != pages {
		t.Errorf("resident accesses materialized pages: %d, want %d", m.PageCount(), pages)
	}
}

// A run hands its references to the model worker in batches that the
// machine recycles, so once a machine has run, a long run allocates
// nothing however many batches it fills: not a batch, not a channel, and
// not the worker goroutine's start.
func TestRunQueueZeroAllocs(t *testing.T) {
	b := program.NewBuilder("stream")
	b.Block("entry").MovI(isa.R2, int64(program.HeapBase))
	l := b.Block("loop")
	l.AndI(isa.R3, isa.R0, 4095)
	l.Load(isa.R4, 8, isa.MemIdx(isa.R2, isa.R3, 8, 0))
	l.Store(isa.R4, 8, isa.MemIdx(isa.R2, isa.R3, 8, 8))
	l.AddI(isa.R0, isa.R0, 1)
	l.BrI(isa.CondLT, isa.R0, 50*batchLen, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := New(p, FixedLatency(1))
	run := func() {
		m.PC, m.Halted, m.Regs[isa.R0] = p.Entry, false, 0
		if err := m.Run(NoStop); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if m.q.work == nil {
		t.Fatalf("a run of %d references handed no batch to the worker", 100*batchLen)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("run of 100 batches: %v allocs, want 0", allocs)
	}
}
