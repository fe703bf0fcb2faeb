package rio

import (
	"errors"
	"testing"

	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/vm"
)

// loopProgram builds a program that sums n words at HeapBase with a hot
// inner loop; identical to the vm test workload so native and code-cache
// execution can be compared.
func loopProgram(t *testing.T, n int64) *program.Program {
	t.Helper()
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(i)
	}
	b := program.NewBuilder("loop")
	b.AddWords(program.HeapBase, words)
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.MovI(isa.R1, 0)
	e.MovI(isa.R2, n)
	e.MovI(isa.R3, int64(program.HeapBase))
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

func runBoth(t *testing.T, p *program.Program, maxInstrs uint64) (*vm.Machine, *Runtime) {
	t.Helper()
	native := vm.New(p, nil)
	if err := native.Run(maxInstrs); err != nil {
		t.Fatalf("native Run: %v", err)
	}
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	if err := rt.Run(maxInstrs); err != nil {
		t.Fatalf("rio Run: %v", err)
	}
	return native, rt
}

func TestSemanticsMatchNative(t *testing.T) {
	p := loopProgram(t, 500)
	native, rt := runBoth(t, p, 100_000)
	if rt.M.Regs != native.Regs {
		t.Errorf("register files differ:\nnative %v\nrio    %v", native.Regs, rt.M.Regs)
	}
	if rt.M.Instrs != native.Instrs {
		t.Errorf("instruction counts differ: native %d rio %d", native.Instrs, rt.M.Instrs)
	}
	if rt.M.Cycles != native.Cycles {
		t.Errorf("guest cycles differ: native %d rio %d", native.Cycles, rt.M.Cycles)
	}
}

func TestBuildsTraceForHotLoop(t *testing.T) {
	p := loopProgram(t, 500)
	_, rt := runBoth(t, p, 100_000)
	if rt.TracesBuilt == 0 {
		t.Fatal("hot loop must be promoted to a trace")
	}
	loopStart := p.Symbols["loop"]
	tr, ok := rt.TraceAt(loopStart)
	if !ok {
		t.Fatalf("no trace at loop head %#x (%d traces built)", loopStart, rt.TracesBuilt)
	}
	if !tr.IsTrace {
		t.Error("fragment must be marked as trace")
	}
	if tr.ExecCount == 0 {
		t.Error("trace must have executed")
	}
	// The loop body is 4 instructions; a closed loop trace is exactly it.
	if tr.NumInstrs() != 4 {
		t.Errorf("trace length = %d instrs, want 4", tr.NumInstrs())
	}
}

func TestTraceObserverFires(t *testing.T) {
	p := loopProgram(t, 500)
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	var seen []*Fragment
	rt.OnTrace = func(f *Fragment) { seen = append(seen, f) }
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != rt.TracesBuilt {
		t.Errorf("observer saw %d traces, built %d", len(seen), rt.TracesBuilt)
	}
	if len(seen) == 0 {
		t.Fatal("no traces observed")
	}
}

func TestOverheadAccounting(t *testing.T) {
	p := loopProgram(t, 2000)
	native, rt := runBoth(t, p, 100_000)
	if rt.Overhead == 0 {
		t.Error("runtime must accrue overhead")
	}
	total := rt.TotalCycles()
	// The loop is hot: overhead must be amortized to within 25% of native,
	// and execution can even be slightly faster than native thanks to
	// trace credit.
	ratio := float64(total) / float64(native.Cycles)
	if ratio > 1.25 {
		t.Errorf("slowdown ratio = %.3f, want <= 1.25 for a hot loop", ratio)
	}
	if ratio <= 0 {
		t.Errorf("ratio = %.3f, want positive", ratio)
	}
}

func TestDispatchThenLink(t *testing.T) {
	p := loopProgram(t, 500)
	_, rt := runBoth(t, p, 100_000)
	// A tight loop transitions thousands of times but dispatches only a
	// handful: links and the closed-loop trace absorb the rest.
	if rt.Dispatches > 20 {
		t.Errorf("Dispatches = %d, want few (links must absorb repeats)", rt.Dispatches)
	}
}

func TestInstrumentationHooksFire(t *testing.T) {
	p := loopProgram(t, 2000)
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	var hooked int
	var prologs int
	rt.OnTrace = func(f *Fragment) {
		hooks := make([]MemHook, len(f.Instrs))
		for _, i := range f.MemOps() {
			hooks[i] = func(pc, addr uint64, size uint8, write bool) { hooked++ }
		}
		f.Instr = &Instrumentation{
			Prolog:     func() bool { prologs++; return true },
			Hooks:      hooks,
			PerRefCost: 5,
			PrologCost: 3,
		}
	}
	if err := rt.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if prologs == 0 {
		t.Fatal("prolog never ran")
	}
	if hooked == 0 {
		t.Fatal("memory hooks never fired")
	}
	// Every trace iteration has exactly one load; prologs count trace
	// entries, and a closed-loop trace re-enters without leaving, so
	// hooked >= prologs.
	if hooked < prologs {
		t.Errorf("hooked = %d < prologs = %d", hooked, prologs)
	}
}

func TestPrologReplacementSwitchesFragment(t *testing.T) {
	p := loopProgram(t, 5000)
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	replaced := false
	rt.OnTrace = func(f *Fragment) {
		if replaced {
			return
		}
		clone := f.Clone()
		entries := 0
		f.Instr = &Instrumentation{
			Prolog: func() bool {
				entries++
				if entries >= 10 {
					rt.ReplaceTrace(clone)
					replaced = true
					return false
				}
				return true
			},
			PrologCost: 3,
		}
	}
	if err := rt.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !replaced {
		t.Fatal("replacement never happened")
	}
	loopStart := p.Symbols["loop"]
	tr, ok := rt.TraceAt(loopStart)
	if !ok {
		t.Fatal("no trace after replacement")
	}
	if tr.Instr != nil {
		t.Error("replacement trace must be clean")
	}
	if tr.ExecCount == 0 {
		t.Error("replacement trace must have executed")
	}
}

func TestSampling(t *testing.T) {
	p := loopProgram(t, 20000)
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	rt.SamplePeriod = 1000
	var inTrace, outTrace int
	rt.OnSample = func(f *Fragment) {
		if f != nil {
			inTrace++
		} else {
			outTrace++
		}
	}
	if err := rt.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt.Samples == 0 {
		t.Fatal("no samples taken")
	}
	if inTrace == 0 {
		t.Error("a hot loop must receive in-trace samples")
	}
	if uint64(inTrace+outTrace) != rt.Samples {
		t.Errorf("observer saw %d samples, runtime counted %d", inTrace+outTrace, rt.Samples)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := &Fragment{
		ID:      1,
		Start:   0x400000,
		Instrs:  []isa.Instr{{Op: isa.OpNop, Mem: isa.NoMem}, {Op: isa.OpRet, Mem: isa.NoMem}},
		PCs:     []uint64{0x400000, 0x400010},
		IsTrace: true,
		blocks:  []uint64{0x400000},
	}
	f.Instr = &Instrumentation{}
	f.link(0x400020)
	c := f.Clone()
	if c.Instr != nil {
		t.Error("clone must not carry instrumentation")
	}
	if c.Linked(0x400020) {
		t.Error("clone must not carry links")
	}
	c.Instrs[0].Op = isa.OpHalt
	if f.Instrs[0].Op != isa.OpNop {
		t.Error("clone must deep-copy instructions")
	}
	if c.ExecCount != 0 {
		t.Error("clone must reset execution count")
	}
}

func TestCallReturnAcrossFragments(t *testing.T) {
	b := program.NewBuilder("callret")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.MovI(isa.R1, 0)
	l := b.Block("loop")
	l.Call("inc")
	l.AddI(isa.R1, isa.R1, 1)
	l.BrI(isa.CondLT, isa.R1, 200, "loop")
	b.Block("done").Halt()
	f := b.Block("inc")
	f.AddI(isa.R0, isa.R0, 2)
	f.Ret()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	native := vm.New(p, nil)
	if err := native.Run(100_000); err != nil {
		t.Fatalf("native: %v", err)
	}
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("rio: %v", err)
	}
	if m.Regs[isa.R0] != native.Regs[isa.R0] || m.Regs[isa.R0] != 400 {
		t.Errorf("R0 = %d (native %d), want 400", m.Regs[isa.R0], native.Regs[isa.R0])
	}
	if rt.IndirectLks == 0 {
		t.Error("returns must pay indirect lookups")
	}
}

func TestBudgetError(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Block("entry").Jmp("entry")
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	rt := NewRuntime(vm.New(p, nil))
	if err := rt.Run(1000); !errors.Is(err, ErrNotHalted) {
		t.Errorf("Run = %v, want ErrNotHalted", err)
	}
}

// TestJmpIndOutsideImage: control leaving the code image must fail the
// run with vm.ErrBadPC at the same point plain interpretation does,
// rather than dispatching into an empty fragment.
func TestJmpIndOutsideImage(t *testing.T) {
	b := program.NewBuilder("escape")
	b.Block("entry").MovI(isa.R1, 0x10).JmpInd(isa.R1)
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	native := vm.New(p, nil)
	if err := native.Run(1000); !errors.Is(err, vm.ErrBadPC) {
		t.Fatalf("native Run = %v, want vm.ErrBadPC", err)
	}
	m := vm.New(p, nil)
	if err := NewRuntime(m).Run(1000); !errors.Is(err, vm.ErrBadPC) {
		t.Fatalf("rio Run = %v, want vm.ErrBadPC", err)
	}
	if m.PC != 0x10 || m.Instrs != native.Instrs || m.Regs != native.Regs {
		t.Errorf("rio stopped at pc %#x after %d instrs, native at %#x after %d",
			m.PC, m.Instrs, native.PC, native.Instrs)
	}
}

func TestGroundTruthModelSeesSameAccesses(t *testing.T) {
	p := loopProgram(t, 3000)
	nativeModel := &countingModel{}
	native := vm.New(p, nativeModel)
	if err := native.Run(1_000_000); err != nil {
		t.Fatalf("native: %v", err)
	}
	rioModel := &countingModel{}
	m := vm.New(p, rioModel)
	rt := NewRuntime(m)
	if err := rt.Run(1_000_000); err != nil {
		t.Fatalf("rio: %v", err)
	}
	if nativeModel.n != rioModel.n {
		t.Errorf("memory model saw %d accesses under rio, %d native", rioModel.n, nativeModel.n)
	}
}

type countingModel struct{ n uint64 }

func (c *countingModel) Access(addr uint64, size uint8, write bool) uint64 {
	c.n++
	return 0
}

func TestBlockCacheCapacityFlush(t *testing.T) {
	// A loop over many distinct blocks with a tiny block cache: the
	// runtime must flush repeatedly yet preserve program semantics.
	b := program.NewBuilder("bigcode")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.MovI(isa.R8, 0)
	b.Block("rep")
	for i := 0; i < 40; i++ {
		blk := b.Block(blockName2(i))
		blk.AddI(isa.R0, isa.R0, int64(i))
		blk.AddI(isa.R0, isa.R0, 1)
	}
	fin := b.Block("repend")
	fin.AddI(isa.R8, isa.R8, 1)
	fin.BrI(isa.CondLT, isa.R8, 30, "rep")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	native := vm.New(p, nil)
	if err := native.Run(1_000_000); err != nil {
		t.Fatalf("native: %v", err)
	}
	m := vm.New(p, nil)
	rt := NewRuntime(m)
	rt.HotThreshold = 1 << 30 // no traces: stress the block cache alone
	rt.BlockCacheCap = 30     // far smaller than the 120-instr loop body
	if err := rt.Run(1_000_000); err != nil {
		t.Fatalf("rio: %v", err)
	}
	if rt.BlockFlushes == 0 {
		t.Fatal("tiny block cache must flush")
	}
	if m.Regs != native.Regs {
		t.Error("register state diverged under cache flushing")
	}
	// Rebuild churn must show up as extra block builds.
	if rt.BlocksBuilt <= 43 {
		t.Errorf("BlocksBuilt = %d; flushing must force rebuilds", rt.BlocksBuilt)
	}
}

func blockName2(i int) string { return "blk" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }
