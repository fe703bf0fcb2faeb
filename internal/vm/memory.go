// Package vm executes guest programs: a sparse paged memory, an interpreter
// with a cycle cost model, and hooks that let higher layers (the runtime
// code manipulator, the offline simulator, the counter model) observe every
// memory reference. The machine is the reproduction's stand-in for the
// physical processor the paper measures: "native execution" is the machine
// running a program with a hardware cache model attached and nothing else.
package vm

import (
	"encoding/binary"
	"fmt"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// The page table spans the 32-bit guest layout (code, globals, heap
	// and stack all sit below 4 GiB): a directory of dirSize chunks, each
	// mapping chunkSize consecutive pages (4 MiB of guest space).
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	dirSize    = 1 << (32 - pageShift - chunkShift)
	// tablePages is the first page number the table does not cover.
	tablePages = dirSize * chunkSize
)

// frame is one page of guest memory.
type frame [pageSize]byte

type chunk [chunkSize]*frame

// Memory is a sparse, paged, byte-addressed guest memory. Pages materialize
// zero-filled on first write. Multi-byte accesses are little endian and may
// straddle page boundaries.
//
// Pages below 4 GiB live in a two-level page table; the rare page at or
// above it (only hand-written programs reach there) lives in a map.
type Memory struct {
	dir   [dirSize]*chunk
	high  map[uint64]*frame
	pages int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// lookup returns the page holding addr, nil if it was never written.
func (m *Memory) lookup(addr uint64) *frame {
	pn := addr >> pageShift
	if pn >= tablePages {
		return m.high[pn]
	}
	if c := m.dir[pn>>chunkShift]; c != nil {
		return c[pn&chunkMask]
	}
	return nil
}

// page returns the page holding addr, materializing it.
func (m *Memory) page(addr uint64) *frame {
	if p := m.lookup(addr); p != nil {
		return p
	}
	p := new(frame)
	m.pages++
	pn := addr >> pageShift
	if pn >= tablePages {
		if m.high == nil {
			m.high = make(map[uint64]*frame)
		}
		m.high[pn] = p
		return p
	}
	c := m.dir[pn>>chunkShift]
	if c == nil {
		c = new(chunk)
		m.dir[pn>>chunkShift] = c
	}
	c[pn&chunkMask] = p
	return p
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	if p := m.lookup(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr)[addr&pageMask] = b
}

// Read returns the little-endian value of the given size (1, 2, 4 or 8
// bytes) at addr, zero extended.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little endian.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 1:
			p[off] = byte(v)
			return
		}
	}
	for i := uint8(0); i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// WriteBytes copies a byte slice into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := copy(m.page(addr)[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = m.ByteAt(addr + uint64(i))
	}
	return out
}

// PageCount reports the number of materialized pages (for tests and memory
// footprint accounting).
func (m *Memory) PageCount() int { return m.pages }

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("vm.Memory{%d pages, %d KiB resident}", m.pages, m.pages*pageSize/1024)
}
