//go:build !race

package harness

import (
	"fmt"
	"reflect"
	"testing"

	"umi/internal/cache"
	"umi/internal/cachegrind"
	"umi/internal/vm"
	"umi/internal/workloads"
)

// TestRunsShareOneExecution pins the equalities the drivers rely on to
// execute each guest once per stack: on every registered workload, a
// standard UMI run's guest side (RT.M.Cycles, RT.M.Instrs and every level
// of H) is exactly RunNative's on the Pentium 4 with and without hardware
// prefetching and on the K7, and so is the prefetching Pentium 4 rio run's.
// A Cachegrind riding the Pentium 4 UMI run on its RefHook sees exactly
// what RunCachegrind sees, and leaves the run's Report, TotalCycles,
// History and event count as they are without it.
//
// Nine runs of 51 workloads take about half a minute; under the race
// detector that would crowd make check's race pass, so the test is !race
// and make check runs it in its plain pass.
func TestRunsShareOneExecution(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range []struct {
				p  *Platform
				hw bool
			}{{P4, false}, {P4, true}, {K7, false}} {
				native, err := RunNative(w, c.p, c.hw)
				if err != nil {
					t.Fatal(err)
				}
				run, err := RunUMI(w, c.p, UMIParams(c.p), c.hw, false)
				if err != nil {
					t.Fatal(err)
				}
				sameGuest(t, fmt.Sprintf("%s UMI, hw prefetch %v", c.p.Name, c.hw), native, run.RT.M, run.H)
				if c.p == P4 && c.hw {
					rt, err := RunRIO(w, P4, true)
					if err != nil {
						t.Fatal(err)
					}
					sameGuest(t, "Pentium 4 rio, hw prefetch true", native, rt.M, rt.M.Model.(*cache.Hierarchy))
				}
				if c.p == P4 && !c.hw {
					ridesCachegrind(t, w, run)
				}
			}
		})
	}
}

// sameGuest reports where a run's guest side differs from the native run.
func sameGuest(t *testing.T, label string, native *NativeResult, m *vm.Machine, h *cache.Hierarchy) {
	t.Helper()
	if m.Cycles != native.Cycles || m.Instrs != native.Instrs {
		t.Errorf("%s: %d cycles, %d instrs; native %d, %d",
			label, m.Cycles, m.Instrs, native.Cycles, native.Instrs)
	}
	for _, l := range []struct {
		name      string
		got, want cache.LevelStats
	}{
		{"L1", h.L1Stats, native.H.L1Stats},
		{"L1I", h.L1IStats, native.H.L1IStats},
		{"L2", h.L2Stats, native.H.L2Stats},
	} {
		if l.got != l.want {
			t.Errorf("%s, %s: %+v; native %+v", label, l.name, l.got, l.want)
		}
	}
}

// ridesCachegrind repeats the Pentium 4 UMI run plain with a Cachegrind on
// its RefHook and holds it to RunCachegrind and to plain.
func ridesCachegrind(t *testing.T, w *workloads.Workload, plain *UMIRun) {
	t.Helper()
	cg := cachegrind.NewP4()
	ridden, err := RunUMI(w, P4, UMIParams(P4), false, false, func(r *UMIRun) { r.RT.M.RefHook = cg.Ref })
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCachegrind(w, P4)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Refs != want.Refs || cg.L1Accesses != want.L1Accesses || cg.L1Misses != want.L1Misses ||
		cg.L2Accesses != want.L2Accesses || cg.L2Misses != want.L2Misses {
		t.Errorf("riding Cachegrind %v; RunCachegrind %v", cg, want)
	}
	if !reflect.DeepEqual(cg.Stats(), want.Stats()) {
		t.Error("riding Cachegrind's per-PC stats differ from RunCachegrind's")
	}
	if got, want := cg.DelinquentSet(0.90), want.DelinquentSet(0.90); !reflect.DeepEqual(got, want) {
		t.Errorf("riding Cachegrind's 90%% delinquent set %s; RunCachegrind's %s", SortedPCs(got), SortedPCs(want))
	}
	if !reflect.DeepEqual(ridden.Report, plain.Report) {
		t.Errorf("Cachegrind moved the report:\n%v\nwithout it:\n%v", ridden.Report, plain.Report)
	}
	if ridden.TotalCycles() != plain.TotalCycles() {
		t.Errorf("Cachegrind moved TotalCycles: %d, without it %d", ridden.TotalCycles(), plain.TotalCycles())
	}
	if !reflect.DeepEqual(ridden.History, plain.History) {
		t.Error("Cachegrind moved the profile history")
	}
	if got, want := ridden.Sys.EventLog().Total(), plain.Sys.EventLog().Total(); got != want {
		t.Errorf("Cachegrind moved the event count: %d, without it %d", got, want)
	}
}
