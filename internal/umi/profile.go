package umi

import (
	"fmt"

	"umi/internal/rio"
)

// noAddr marks an address-profile cell with no recorded reference (the
// trace exited before the operation executed in that iteration).
const noAddr = ^uint64(0)

// AddressProfile is the paper's two-dimensional profile for one code
// trace: rows are trace executions, columns are profiled operations in
// trace order, cells are effective addresses. Reading a column gives the
// address sequence of a single instruction across executions; reading row
// by row gives the reference stream the mini-simulator consumes.
type AddressProfile struct {
	// Ops holds the application PCs of the profiled operations, in trace
	// order. IsLoadOp marks which are loads.
	Ops      []uint64
	IsLoadOp []bool

	cells    []uint64 // rowCount x len(Ops), flat
	rowCap   int
	rowUsed  int
	recorded int // populated cells, maintained by Record
}

// NewAddressProfile allocates a profile for the given operations.
func NewAddressProfile(ops []uint64, isLoad []bool, rows int) *AddressProfile {
	p := &AddressProfile{Ops: ops, IsLoadOp: isLoad, rowCap: rows}
	p.cells = make([]uint64, rows*len(ops))
	for i := range p.cells {
		p.cells[i] = noAddr
	}
	return p
}

// Rows reports the number of recorded rows.
func (p *AddressProfile) Rows() int { return p.rowUsed }

// Full reports whether another row can be opened.
func (p *AddressProfile) Full() bool { return p.rowUsed >= p.rowCap }

// OpenRow starts recording a new trace execution and returns its row
// index, or false when the profile is full.
func (p *AddressProfile) OpenRow() (int, bool) {
	if p.Full() {
		return 0, false
	}
	p.rowUsed++
	return p.rowUsed - 1, true
}

// Record stores the address referenced by operation col during row.
func (p *AddressProfile) Record(row, col int, addr uint64) {
	i := row*len(p.Ops) + col
	if p.cells[i] == noAddr {
		p.recorded++
	}
	p.cells[i] = addr
}

// Recorded reports the number of populated cells: the reference count the
// mini-simulation will replay. The modelled analysis cost is charged from
// this at hand-off time, before the profile is actually simulated.
func (p *AddressProfile) Recorded() int { return p.recorded }

// ReuseRow clears one already-open row so a new execution can record over
// it — the reservoir-sampling overwrite. The row stays counted in Rows();
// only its cells (and their contribution to Recorded) are discarded.
func (p *AddressProfile) ReuseRow(row int) {
	base := row * len(p.Ops)
	for i := base; i < base+len(p.Ops); i++ {
		if p.cells[i] != noAddr {
			p.recorded--
			p.cells[i] = noAddr
		}
	}
}

// At returns the recorded address for (row, col) and whether one exists.
func (p *AddressProfile) At(row, col int) (uint64, bool) {
	a := p.cells[row*len(p.Ops)+col]
	return a, a != noAddr
}

// Reset discards all recorded rows.
func (p *AddressProfile) Reset() {
	for i := 0; i < p.rowUsed*len(p.Ops); i++ {
		p.cells[i] = noAddr
	}
	p.rowUsed = 0
	p.recorded = 0
}

// Reinit repurposes the profile's backing storage for a different set of
// operations or row count, growing it only when the new geometry needs
// more cells. The System reinstruments a trace through this when an
// optimizer rewrote its code or adaptation changed its row target.
func (p *AddressProfile) Reinit(ops []uint64, isLoad []bool, rows int) {
	p.Ops, p.IsLoadOp, p.rowCap = ops, isLoad, rows
	need := rows * len(ops)
	if cap(p.cells) < need {
		p.cells = make([]uint64, need)
	}
	p.cells = p.cells[:need]
	for i := range p.cells {
		p.cells[i] = noAddr
	}
	p.rowUsed = 0
	p.recorded = 0
}

// Column returns the recorded address sequence of one operation across
// executions, skipping unrecorded cells.
func (p *AddressProfile) Column(col int) []uint64 {
	return p.columnInto(make([]uint64, 0, p.rowUsed), col)
}

// columnInto appends the column's recorded addresses to dst and returns it.
// The analyzer gathers a delinquent load's column this way; appending into
// the load's recycled slice keeps that allocation-free in steady state.
func (p *AddressProfile) columnInto(dst []uint64, col int) []uint64 {
	stride := len(p.Ops)
	for i := col; i < p.rowUsed*stride; i += stride {
		if a := p.cells[i]; a != noAddr {
			dst = append(dst, a)
		}
	}
	return dst
}

func (p *AddressProfile) String() string {
	return fmt.Sprintf("AddressProfile{%d ops, %d/%d rows}", len(p.Ops), p.rowUsed, p.rowCap)
}

// selectOps applies the instrumentor's operation filtering (§4.1) to a
// trace: loads and stores survive unless they are stack-relative or
// static, mirroring the esp/ebp heuristic. With filtering disabled every
// load/store is selected. Duplicate PCs (a trace can inline the same block
// twice) are profiled once. maxOps caps the selection (§4.2: 256).
//
// It returns the selected operations' PCs and kinds, one profile column
// each; cols, aligned with f.Instrs, holding each instruction's column
// (every copy of a repeated PC maps to the same one) or -1 where nothing
// is profiled; and the number of distinct candidate PCs.
func selectOps(f *rio.Fragment, filter bool, maxOps int) (pcs []uint64, isLoad []bool, cols []int, candidates int) {
	seen := make(map[uint64]int) // candidate PC → its column, or -1
	cols = make([]int, len(f.Instrs))
	for i := range f.Instrs {
		cols[i] = -1
		in := &f.Instrs[i]
		if !in.Op.IsLoad() && !in.Op.IsStore() {
			continue
		}
		pc := f.PCs[i]
		if col, ok := seen[pc]; ok {
			cols[i] = col
			continue
		}
		seen[pc] = -1
		candidates++
		if filter && (in.Mem.IsStackRelative() || in.Mem.IsStatic()) {
			continue
		}
		if len(pcs) >= maxOps {
			continue
		}
		seen[pc], cols[i] = len(pcs), len(pcs)
		pcs = append(pcs, pc)
		isLoad = append(isLoad, in.Op.IsLoad())
	}
	return pcs, isLoad, cols, candidates
}

// DominantStride returns a column's dominant successive-address delta and
// the fraction of the column's deltas it accounts for. Used by the
// prefetching optimization (§8: "calculate the stride distance between
// successive memory references for individual loads"). addrs is a column
// as Column returns it. Only a delta holding at least half of the deltas
// counts as dominant: a column without one, or with fewer than three
// addresses, returns 0, 0.
func DominantStride(addrs []uint64) (stride int64, frac float64) {
	return dominantStride(addrs, 0, 1)
}

// dominantStride finds the dominant delta of the column that starts at
// cells[col] and steps by step — a profile's flat cells read in place, or
// a materialized column at step 1 — skipping unrecorded cells. A delta
// holding at least half of the n deltas occurs more than n/3 times, so a
// two-counter Misra–Gries pass always keeps it; a second pass counts the
// two survivors exactly. Ties at exactly half keep one total order —
// count, then smaller magnitude, then the positive stride — so the result
// is the sort-and-count winner whenever that winner holds half the column.
func dominantStride(cells []uint64, col, step int) (stride int64, frac float64) {
	var cand [2]int64
	var votes [2]int
	prev, seen := uint64(0), 0
	for i := col; i < len(cells); i += step {
		a := cells[i]
		if a == noAddr {
			continue
		}
		if seen > 0 {
			switch d := int64(a - prev); {
			case votes[0] > 0 && cand[0] == d:
				votes[0]++
			case votes[1] > 0 && cand[1] == d:
				votes[1]++
			case votes[0] == 0:
				cand[0], votes[0] = d, 1
			case votes[1] == 0:
				cand[1], votes[1] = d, 1
			default:
				votes[0]--
				votes[1]--
			}
		}
		prev = a
		seen++
	}
	if seen < 3 {
		return 0, 0
	}
	var count [2]int
	seen = 0
	for i := col; i < len(cells); i += step {
		a := cells[i]
		if a == noAddr {
			continue
		}
		if seen > 0 {
			d := int64(a - prev)
			if d == cand[0] {
				count[0]++
			} else if d == cand[1] {
				count[1]++
			}
		}
		prev = a
		seen++
	}
	n, bestN := seen-1, 0
	for k, d := range cand {
		if c := count[k]; 2*c >= n && outranks(d, c, stride, bestN) {
			stride, bestN = d, c
		}
	}
	return stride, float64(bestN) / float64(n)
}

// outranks is the stride rules' total order: stride d seen c times beats
// best seen bestN times on a higher count, then a smaller magnitude, then
// the positive sign.
func outranks(d int64, c int, best int64, bestN int) bool {
	return c > bestN || (c == bestN && (abs64(d) < abs64(best) || (abs64(d) == abs64(best) && d > best)))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
