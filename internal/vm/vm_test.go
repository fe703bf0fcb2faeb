package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"umi/internal/isa"
	"umi/internal/program"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("Read8 = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("Read4 = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("Read4 high = %#x", got)
	}
	if got := m.Read(0x1000, 1); got != 0x88 {
		t.Errorf("Read1 = %#x", got)
	}
	if got := m.Read(0x2000, 8); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // 8-byte access crosses the page boundary
	m.Write(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Read(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Errorf("straddling Read = %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 3*pageSize)
	for i := range data {
		data[i] = byte(i)
	}
	m.WriteBytes(0x10, data)
	back := m.ReadBytes(0x10, len(data))
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, back[i], data[i])
		}
	}
}

func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		addr %= 1 << 30
		size := uint8(1 << (szSel % 4))
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sumProgram sums n consecutive 8-byte words at HeapBase into R0.
func sumProgram(t *testing.T, n int64, words []uint64) *program.Program {
	t.Helper()
	b := program.NewBuilder("sum")
	b.AddWords(program.HeapBase, words)
	e := b.Block("entry")
	e.MovI(isa.R0, 0)                       // acc
	e.MovI(isa.R1, 0)                       // i
	e.MovI(isa.R2, n)                       // limit
	e.MovI(isa.R3, int64(program.HeapBase)) // base
	l := b.Block("loop")
	l.Load(isa.R4, 8, isa.MemIdx(isa.R3, isa.R1, 8, 0))
	l.Add(isa.R0, isa.R0, isa.R4)
	l.AddI(isa.R1, isa.R1, 1)
	l.Br(isa.CondLT, isa.R1, isa.R2, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestRunSumLoop(t *testing.T) {
	words := []uint64{3, 5, 7, 11, 13}
	p := sumProgram(t, int64(len(words)), words)
	m := New(p, nil)
	if err := m.Run(1_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Regs[isa.R0] != 39 {
		t.Errorf("sum = %d, want 39", m.Regs[isa.R0])
	}
	if !m.Halted {
		t.Error("machine must be halted")
	}
	// 4 entry movi + fall-through jmp + 5*4 loop + exit fall-through jmp +
	// halt = 27 instructions.
	if m.Instrs != 27 {
		t.Errorf("Instrs = %d, want 27", m.Instrs)
	}
}

func TestRefHookSeesEveryReference(t *testing.T) {
	words := []uint64{1, 2, 3}
	p := sumProgram(t, 3, words)
	m := New(p, nil)
	var refs []uint64
	m.RefHook = func(pc, addr uint64, size uint8, write bool) {
		if write {
			t.Error("sum loop performs no stores")
		}
		if size != 8 {
			t.Errorf("size = %d, want 8", size)
		}
		refs = append(refs, addr)
	}
	if err := m.Run(1_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []uint64{program.HeapBase, program.HeapBase + 8, program.HeapBase + 16}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref %d = %#x, want %#x", i, refs[i], want[i])
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	words := []uint64{1}
	p := sumProgram(t, 1, words)
	base := New(p, nil)
	if err := base.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	slow := New(p, FixedLatency(100))
	if err := slow.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if slow.Cycles != base.Cycles+100 {
		t.Errorf("latency model: cycles = %d, want %d", slow.Cycles, base.Cycles+100)
	}
}

// fetchModel charges a fixed stall per access and per instruction fetch,
// and counts the fetches it sees.
type fetchModel struct{ fetches int }

func (f *fetchModel) Access(addr uint64, size uint8, write bool) uint64 { return 10 }

func (f *fetchModel) FetchInstr(pc uint64) uint64 {
	f.fetches++
	return 100
}

// A faulting instruction costs nothing, but the model still sees its
// fetch: the queued fetch reaches the model without its stall reaching
// the clock, whether a run's worker or Step applies the queue.
func TestDivideByZero(t *testing.T) {
	b := program.NewBuilder("div0")
	blk := b.Block("entry")
	blk.MovI(isa.R1, 10)
	blk.MovI(isa.R2, 0)
	blk.Div(isa.R0, isa.R1, isa.R2)
	blk.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	drives := map[string]func(*Machine) error{
		"Run": func(m *Machine) error { return m.Run(10) },
		"Step": func(m *Machine) error {
			for {
				if err := m.Step(); err != nil {
					return err
				}
			}
		},
	}
	for name, drive := range drives {
		fm := &fetchModel{}
		m := New(p, fm)
		if err := drive(m); !errors.Is(err, ErrDivideByZero) {
			t.Fatalf("%s = %v, want ErrDivideByZero", name, err)
		}
		if fm.fetches != 3 || m.Instrs != 2 || m.Cycles != 2*(1+100) {
			t.Errorf("%s: model saw %d fetches, machine %d instrs %d cycles; want 3, 2, %d",
				name, fm.fetches, m.Instrs, m.Cycles, 2*(1+100))
		}
	}
}

func TestBadPC(t *testing.T) {
	b := program.NewBuilder("p")
	blk := b.Block("entry")
	blk.MovI(isa.R1, 0x99999990)
	blk.JmpInd(isa.R1)
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := New(p, nil)
	if err := m.Run(10); !errors.Is(err, ErrBadPC) {
		t.Errorf("Run = %v, want ErrBadPC", err)
	}
}

// TestExecStopsWhereControlLeaves: Exec runs on through a branch that
// continues at the next slot — an untaken branch, or a taken one whose
// target comes next — and returns at a branch leaving the straight line,
// at a halt, and at stop.
func TestExecStopsWhereControlLeaves(t *testing.T) {
	b := program.NewBuilder("straight")
	e := b.Block("entry")
	e.MovI(isa.R1, 5)
	e.BrI(isa.CondEQ, isa.R1, 0, "far") // untaken
	e.Jmp("next")                       // taken, to the next slot
	n := b.Block("next")
	n.AddI(isa.R1, isa.R1, 1)
	n.BrI(isa.CondEQ, isa.R1, 6, "far") // taken elsewhere
	n.Halt()
	b.Block("far").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	far := p.Symbols["far"]
	m := New(p, nil)
	if got, next, err := m.Exec(p.Instrs, nil, p.Entry, nil, NoStop); got != 5 || next != far || err != nil || m.Halted {
		t.Errorf("image: Exec = %d, %#x, %v (halted %v); want 5, %#x, nil at the taken branch", got, next, err, m.Halted, far)
	}
	// A trace that inlined the taken branch runs on through it to the halt.
	i, _ := p.IndexOf(p.Symbols["next"])
	code := []isa.Instr{p.Instrs[i], p.Instrs[i+1], p.Instrs[len(p.Instrs)-1]}
	pcs := []uint64{p.PCOf(i), p.PCOf(i + 1), far}
	m = New(p, nil)
	m.Regs[isa.R1] = 5
	if got, next, err := m.Exec(code, pcs, 0, nil, NoStop); got != 3 || next != far+isa.InstrBytes || err != nil || !m.Halted {
		t.Errorf("trace: Exec = %d, %#x, %v (halted %v); want 3, %#x, nil, halted", got, next, err, m.Halted, far+isa.InstrBytes)
	}
	// stop cuts the straight line after the untaken branch.
	m = New(p, nil)
	if got, next, err := m.Exec(p.Instrs, nil, p.Entry, nil, 2); got != 2 || next != p.Symbols["entry"]+2*isa.InstrBytes || err != nil {
		t.Errorf("stop: Exec = %d, %#x, %v; want 2, %#x, nil", got, next, err, p.Symbols["entry"]+2*isa.InstrBytes)
	}
}

func TestBudgetExhausted(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Block("entry").Jmp("entry")
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := New(p, nil)
	if err := m.Run(100); !errors.Is(err, ErrNotHalted) {
		t.Errorf("Run = %v, want ErrNotHalted", err)
	}
	if m.Instrs != 100 {
		t.Errorf("Instrs = %d, want 100", m.Instrs)
	}
}

func TestCallRet(t *testing.T) {
	b := program.NewBuilder("callret")
	e := b.Block("entry")
	e.MovI(isa.R0, 5)
	e.Call("double")
	e.Call("double")
	e.Halt()
	f := b.Block("double")
	f.Add(isa.R0, isa.R0, isa.R0)
	f.Ret()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := New(p, nil)
	if err := m.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Regs[isa.R0] != 20 {
		t.Errorf("R0 = %d, want 20", m.Regs[isa.R0])
	}
}

func TestStackConventions(t *testing.T) {
	b := program.NewBuilder("stack")
	e := b.Block("entry")
	e.AddI(isa.SP, isa.SP, -16)
	e.MovI(isa.R0, 42)
	e.Store(isa.R0, 8, isa.Mem(isa.SP, 0))
	e.Load(isa.R1, 8, isa.Mem(isa.SP, 0))
	e.AddI(isa.SP, isa.SP, 16)
	e.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := New(p, nil)
	if err := m.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Regs[isa.R1] != 42 {
		t.Errorf("R1 = %d, want 42", m.Regs[isa.R1])
	}
	if m.Regs[isa.SP] != program.StackBase {
		t.Errorf("SP = %#x, want %#x", m.Regs[isa.SP], program.StackBase)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	words := []uint64{9, 9}
	p := sumProgram(t, 2, words)
	m := New(p, nil)
	if err := m.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m.Reset()
	if m.Cycles != 0 || m.Instrs != 0 || m.Halted || m.PC != p.Entry {
		t.Error("Reset did not clear execution state")
	}
	if got := m.Mem.Read(program.HeapBase, 8); got != 9 {
		t.Errorf("data segment not reinstalled: %d", got)
	}
	if err := m.Run(1000); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if m.Regs[isa.R0] != 18 {
		t.Errorf("sum after reset = %d, want 18", m.Regs[isa.R0])
	}
}

// Property: a random straight-line ALU program executes deterministically —
// two machines running it produce identical register files.
func TestDeterminismQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := program.NewBuilder("alu")
		blk := b.Block("entry")
		for i := 0; i < 50; i++ {
			rd := isa.Reg(r.Intn(13))
			rs1 := isa.Reg(r.Intn(13))
			rs2 := isa.Reg(r.Intn(13))
			switch r.Intn(5) {
			case 0:
				blk.Add(rd, rs1, rs2)
			case 1:
				blk.Sub(rd, rs1, rs2)
			case 2:
				blk.Mul(rd, rs1, rs2)
			case 3:
				blk.MovI(rd, r.Int63n(1<<30))
			case 4:
				blk.Xor(rd, rs1, rs2)
			}
		}
		blk.Halt()
		p, err := b.Assemble()
		if err != nil {
			return false
		}
		m1, m2 := New(p, nil), New(p, nil)
		if m1.Run(100) != nil || m2.Run(100) != nil {
			return false
		}
		return m1.Regs == m2.Regs && m1.Cycles == m2.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMemoryAgainstMapModel drives the paged memory and a trivially
// correct map-of-bytes model with identical operations: a sweep of every
// access size at the tail of a page, then random operations around the
// page table's edges, and finally the exact count of materialized pages.
func TestMemoryAgainstMapModel(t *testing.T) {
	mem := NewMemory()
	model := make(map[uint64]byte)
	pages := make(map[uint64]bool) // pages holding a written byte
	write := func(addr uint64, size uint8, v uint64) {
		mem.Write(addr, size, v)
		for b := uint8(0); b < size; b++ {
			model[addr+uint64(b)] = byte(v >> (8 * b))
			pages[(addr+uint64(b))>>pageShift] = true
		}
	}
	check := func(op int, addr uint64, size uint8) {
		t.Helper()
		var want uint64
		for b := uint8(0); b < size; b++ {
			want |= uint64(model[addr+uint64(b)]) << (8 * b)
		}
		if got := mem.Read(addr, size); got != want {
			t.Fatalf("op %d: Read(%#x, %d) = %#x, want %#x", op, addr, size, got, want)
		}
	}

	r := rand.New(rand.NewSource(31))
	// Offsets 4089-4095: from there on 8-, then 4-, then 2-byte accesses
	// straddle into the next page.
	for off := uint64(pageSize - 7); off < pageSize; off++ {
		for _, size := range []uint8{1, 2, 4, 8} {
			addr := 5*pageSize + off
			check(-1, addr, size)
			write(addr, size, r.Uint64())
			check(-1, addr, size)
		}
	}

	const chunkBytes = chunkSize * pageSize
	regions := []func() uint64{
		// a small, heavily overlapping window
		func() uint64 { return uint64(r.Intn(1 << 16)) },
		// page tails
		func() uint64 { return uint64(r.Intn(64))*pageSize + pageSize - 8 + uint64(r.Intn(8)) },
		// page-directory chunk boundaries, low, middle and last
		func() uint64 {
			k := []uint64{1, 2, 3, dirSize / 2, dirSize - 1}[r.Intn(5)]
			return k*chunkBytes - 8 + uint64(r.Intn(16))
		},
		// the page table's 4 GiB edge, straddled into the map fallback
		func() uint64 { return 1<<32 - 8 + uint64(r.Intn(16)) },
		// pages far above the table, map only
		func() uint64 { return 1<<40 + uint64(r.Intn(3*pageSize)) },
	}
	for i := 0; i < 30_000; i++ {
		addr := regions[r.Intn(len(regions))]()
		size := uint8(1 << r.Intn(4))
		if r.Intn(2) == 0 {
			write(addr, size, r.Uint64())
		} else {
			check(i, addr, size)
		}
	}
	if mem.PageCount() != len(pages) {
		t.Errorf("PageCount = %d, want %d", mem.PageCount(), len(pages))
	}
}
