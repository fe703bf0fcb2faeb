package rio_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"umi/internal/cache"
	"umi/internal/harness"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
)

// The queued hierarchy's run lifecycle. However vm.Machine.Run or
// rio.Runtime.Run ends — halt, budget, a jump out of the image, divide by
// zero, or a RefHook panicking out of the interpreter — the model worker
// is gone once Run returns, and the clock and the hierarchy stand exactly
// where a Step-driven run of the same instructions leaves them.

// lifecycleTrip is the streaming loop's trip count: with the instruction
// cache on, each iteration queues ten records, so a run fills about 30
// batches before it reaches its ending.
const lifecycleTrip = 6000

// lifecycleEndings are the ways a run ends; panicAt, when set, is the
// reference whose RefHook panics.
var lifecycleEndings = []struct {
	name    string
	want    error
	panicAt int
}{
	{name: "halt"},
	{name: "budget", want: vm.ErrNotHalted},
	{name: "badpc", want: vm.ErrBadPC},
	{name: "div", want: vm.ErrDivideByZero},
	{name: "panic", panicAt: lifecycleTrip + 7},
}

// lifecycleProgram streams loads, stores and prefetches through the heap,
// then ends the run the named way.
func lifecycleProgram(ending string) *program.Program {
	b := program.NewBuilder("lifecycle-" + ending)
	e := b.Block("entry")
	e.MovI(isa.R2, int64(program.HeapBase))
	e.MovI(isa.R0, 0)
	l := b.Block("loop")
	l.AndI(isa.R12, isa.R0, (1<<14)-1)
	l.MulI(isa.R11, isa.R12, 64)
	l.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R11, 1, 0))
	l.Store(isa.R3, 8, isa.MemIdx(isa.R2, isa.R12, 8, 8))
	l.Prefetch(isa.MemIdx(isa.R2, isa.R11, 1, 4096))
	l.AddI(isa.R0, isa.R0, 1)
	l.BrI(isa.CondLT, isa.R0, lifecycleTrip, "loop")
	d := b.Block("done")
	switch ending {
	case "budget":
		d.Jmp("done")
	case "badpc":
		d.MovI(isa.R1, 0x10)
		d.JmpInd(isa.R1)
	case "div":
		d.MovI(isa.R12, 0)
		d.Div(isa.R3, isa.R3, isa.R12)
		d.Halt()
	default:
		d.Halt()
	}
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}

// lifecycleMachine builds a machine on the Pentium 4 hierarchy with an
// instruction cache, so every record kind is queued, and a RefHook that
// panics at reference panicAt (never when 0).
func lifecycleMachine(p *program.Program, panicAt int) (*vm.Machine, *cache.Hierarchy) {
	h := harness.P4.Hierarchy(false)
	h.EnableICache(cache.P4L1I)
	m := vm.New(p, h)
	refs := 0
	m.RefHook = func(pc, addr uint64, size uint8, write bool) {
		if refs++; refs == panicAt {
			panic(fmt.Sprintf("hook panic at reference %d", refs))
		}
	}
	return m, h
}

// recovered runs f and returns what it panicked with (nil if it did not).
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestRunLifecycle(t *testing.T) {
	const budget = 7*lifecycleTrip + 500
	runners := []struct {
		name      string
		run       func(*vm.Machine) error
		notHalted error
	}{
		{"vm", func(m *vm.Machine) error { return m.Run(budget) }, vm.ErrNotHalted},
		{"rio", func(m *vm.Machine) error { return rio.NewRuntime(m).Run(budget) }, rio.ErrNotHalted},
	}
	for _, end := range lifecycleEndings {
		p := lifecycleProgram(end.name)
		for _, r := range runners {
			t.Run(end.name+"/"+r.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				m, h := lifecycleMachine(p, end.panicAt)
				want := end.want
				if want == vm.ErrNotHalted {
					want = r.notHalted
				}
				var err error
				v := recovered(func() { err = r.run(m) })
				waitGoroutines(t, base)
				switch {
				case end.panicAt != 0 && v == nil:
					t.Fatalf("run returned %v; the hook's panic never reached the caller", err)
				case end.panicAt == 0 && v != nil:
					t.Fatalf("run panicked: %v", v)
				case want == nil && err != nil, want != nil && !errors.Is(err, want):
					t.Fatalf("run = %v, want %v", err, want)
				}

				// The reference steps until it faults, halts, panics or
				// reaches the instruction the budget stopped the run at.
				// A panicking hook unwinds out of Step past the point Exec
				// applies the queue, so the reference syncs once recovered.
				ref, refH := lifecycleMachine(p, end.panicAt)
				limit := uint64(vm.NoStop)
				if end.want == vm.ErrNotHalted {
					limit = m.Instrs
				}
				var stepErr error
				v = recovered(func() {
					for !ref.Halted && ref.Instrs < limit && stepErr == nil {
						stepErr = ref.Step()
					}
				})
				ref.Sync()
				if (v != nil) != (end.panicAt != 0) || end.want != vm.ErrNotHalted && !errors.Is(stepErr, end.want) {
					t.Fatalf("Step reference ended with error %v, panic %v", stepErr, v)
				}
				if m.Cycles != ref.Cycles || m.Instrs != ref.Instrs {
					t.Errorf("cycles %d after %d instrs, Step reference %d after %d",
						m.Cycles, m.Instrs, ref.Cycles, ref.Instrs)
				}
				if h.L1Stats != refH.L1Stats || h.L1IStats != refH.L1IStats || h.L2Stats != refH.L2Stats {
					t.Errorf("hierarchy L1 %+v L1I %+v L2 %+v\nStep reference L1 %+v L1I %+v L2 %+v",
						h.L1Stats, h.L1IStats, h.L2Stats, refH.L1Stats, refH.L1IStats, refH.L2Stats)
				}
				if h.L2Stats.PrefetchIssued == 0 || h.L1IStats.Accesses == 0 {
					t.Errorf("run queued no prefetch or no fetch: L1I %+v L2 %+v", h.L1IStats, h.L2Stats)
				}
			})
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: a worker that outlived its run would hold it above.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
