//go:build !race

package rio

import (
	"errors"
	"testing"

	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/vm"
)

// A profiled trace entry — the prolog accepting the entry, the per-
// instruction hooks firing on its references — is UMI's fill path. The
// hooks ride in the fragment's Instrumentation, so an entry allocates
// nothing. Guarded by !race (see the vm package's allocation tests).
func TestProfiledEntryZeroAllocs(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Block("entry").MovI(isa.R3, int64(program.HeapBase))
	l := b.Block("loop")
	l.Load(isa.R4, 8, isa.MemIdx(isa.R3, isa.R1, 8, 0))
	l.Add(isa.R0, isa.R0, isa.R4)
	l.AddI(isa.R1, isa.R1, 1)
	l.AndI(isa.R1, isa.R1, 511)
	l.Jmp("loop")
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	rt := NewRuntime(vm.New(p, vm.FixedLatency(3)))
	// The loop never halts; the budget only has to make it a trace.
	if err := rt.Run(10_000); !errors.Is(err, ErrNotHalted) {
		t.Fatalf("Run = %v, want ErrNotHalted", err)
	}
	tr, ok := rt.TraceAt(p.Symbols["loop"])
	if !ok {
		t.Fatal("no trace at the loop head")
	}
	hooked := 0
	hooks := make([]MemHook, len(tr.Instrs))
	for _, i := range tr.MemOps() {
		hooks[i] = func(pc, addr uint64, size uint8, write bool) { hooked++ }
	}
	tr.Instr = &Instrumentation{
		Prolog:     func() bool { return true },
		Hooks:      hooks,
		PerRefCost: 5,
		PrologCost: 3,
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := rt.execFragment(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("profiled entry: %v allocs per run, want 0", allocs)
	}
	if hooked == 0 {
		t.Error("the entry's hook never fired")
	}
}
