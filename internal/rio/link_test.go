package rio

import (
	"testing"

	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/vm"
)

// A link carries the fragment its target resolved to, valid for one
// code-cache generation. Each test below leaves a predecessor holding a
// cached link and then changes what the target resolves to: the next
// linked exit must run the fragment the code cache now holds, and the run
// must bill exactly what resolving every transition afresh bills (the
// wanted charges are that path's).

// charges is what a run bills, the quantities a stale link would move.
type charges struct {
	Overhead, Credit, Dispatches, IndirectLks uint64
	BlocksBuilt, TracesBuilt, BlockFlushes    int
}

func chargesOf(rt *Runtime) charges {
	return charges{rt.Overhead, rt.Credit, rt.Dispatches, rt.IndirectLks,
		rt.BlocksBuilt, rt.TracesBuilt, rt.BlockFlushes}
}

func assemble(t *testing.T, b *program.Builder) *program.Program {
	t.Helper()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

// pingPong loops p -> t -> p: t's backward branch makes p a trace head.
func pingPong(t *testing.T) *program.Program {
	b := program.NewBuilder("pingpong")
	b.Block("entry").MovI(isa.R1, 0)
	b.Block("p").AddI(isa.R1, isa.R1, 1).Jmp("t")
	tb := b.Block("t")
	tb.AddI(isa.R2, isa.R2, 1)
	tb.BrI(isa.CondLT, isa.R1, 200, "p")
	b.Block("done").Halt()
	return assemble(t, b)
}

func indexOf(t *testing.T, p *program.Program, label string) int {
	t.Helper()
	i, ok := p.IndexOf(p.Symbols[label])
	if !ok {
		t.Fatalf("label %q outside the image", label)
	}
	return i
}

// TestLinkedExitFollowsTracePromotion: t's block links to p's block, then
// the recording that t's exit closes installs a trace at p. The next exit
// through that link must enter the trace.
func TestLinkedExitFollowsTracePromotion(t *testing.T) {
	p := pingPong(t)
	rt := NewRuntime(vm.New(p, nil))
	var block *Fragment
	rt.OnTrace = func(*Fragment) { block = rt.blocks[indexOf(t, p, "p")] }
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := rt.TraceAt(p.Symbols["p"])
	if !ok || block == nil {
		t.Fatal("no trace promoted at p")
	}
	// p's block ran up to the promotion, the trace every entry after it.
	if entries := block.ExecCount + tr.ExecCount; entries != 200 || tr.ExecCount == 0 {
		t.Errorf("p entered %d times in its block, %d in its trace; want 200 in all, the trace's after promotion",
			block.ExecCount, tr.ExecCount)
	}
	want := charges{Overhead: 1056, Credit: 18, Dispatches: 8, BlocksBuilt: 5, TracesBuilt: 1}
	if got := chargesOf(rt); got != want {
		t.Errorf("charges %+v, want %+v", got, want)
	}
}

// TestLinkedExitFollowsReplaceTrace: p's block links to t's block, then
// ReplaceTrace installs an instrumented fragment at t mid-run. Every later
// exit from p must enter the replacement.
func TestLinkedExitFollowsReplaceTrace(t *testing.T) {
	p := pingPong(t)
	rt := NewRuntime(vm.New(p, nil))
	rt.HotThreshold = 1 << 30 // blocks only: the replacement is the one change
	it := indexOf(t, p, "t")
	x := &Fragment{Start: p.Symbols["t"], Instrs: p.Instrs[it : it+2], PCs: []uint64{p.PCOf(it), p.PCOf(it + 1)}}
	prologs := 0
	x.Instr = &Instrumentation{Prolog: func() bool { prologs++; return true }, PrologCost: 7}
	var old *Fragment
	rt.SamplePeriod = 301
	rt.OnSample = func(*Fragment) {
		if old == nil {
			old = rt.blocks[it]
			rt.ReplaceTrace(x)
		}
	}
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if old == nil || old.ExecCount == 0 {
		t.Fatal("t's block never ran before the replacement")
	}
	if old.ExecCount+x.ExecCount != 200 || prologs != int(x.ExecCount) {
		t.Errorf("t entered %d times in its block, %d in the replacement (%d prologs); want 200 in all, every later one in the replacement",
			old.ExecCount, x.ExecCount, prologs)
	}
	want := charges{Overhead: 2075, Dispatches: 8, BlocksBuilt: 5}
	if got := chargesOf(rt); got != want {
		t.Errorf("charges %+v, want %+v", got, want)
	}
}

// TestLinkedExitFollowsBlockFlush: fragment a (installed, so never
// flushed) links to b's block; every eighth iteration a detour through
// four cold blocks overflows the block cache. The next exit from a must
// rebuild b's block, as a lookup does, not run the flushed one.
func TestLinkedExitFollowsBlockFlush(t *testing.T) {
	b := program.NewBuilder("flush")
	b.Block("entry").MovI(isa.R8, 0)
	b.Block("a").AddI(isa.R8, isa.R8, 1).Jmp("b")
	bb := b.Block("b")
	bb.AddI(isa.R0, isa.R0, 1)
	bb.AndI(isa.R9, isa.R8, 7)
	bb.BrI(isa.CondEQ, isa.R9, 0, "x0")
	b.Block("c").BrI(isa.CondLT, isa.R8, 64, "a")
	b.Block("done").Halt()
	b.Block("x0").AddI(isa.R1, isa.R1, 1).Jmp("x1")
	b.Block("x1").AddI(isa.R1, isa.R1, 2).Jmp("x2")
	b.Block("x2").AddI(isa.R1, isa.R1, 3).Jmp("x3")
	b.Block("x3").AddI(isa.R1, isa.R1, 4).Jmp("a")
	p := assemble(t, b)
	rt := NewRuntime(vm.New(p, nil))
	rt.HotThreshold = 1 << 30
	rt.BlockCacheCap = 8
	ia := indexOf(t, p, "a")
	rt.ReplaceTrace(&Fragment{Start: p.PCOf(ia), Instrs: p.Instrs[ia : ia+2], PCs: []uint64{p.PCOf(ia), p.PCOf(ia + 1)}})
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt.BlockFlushes == 0 {
		t.Fatal("the detours never flushed the block cache")
	}
	if cur := rt.blocks[indexOf(t, p, "b")]; cur == nil || cur.ExecCount == 0 {
		t.Error("the block cached at b never ran")
	}
	want := charges{Overhead: 42410, Dispatches: 96, BlocksBuilt: 62, BlockFlushes: 16}
	if got := chargesOf(rt); got != want {
		t.Errorf("charges %+v, want %+v", got, want)
	}
}
