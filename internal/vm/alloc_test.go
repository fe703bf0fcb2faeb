//go:build !race

package vm

import "testing"

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
