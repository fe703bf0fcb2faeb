package umi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"umi/internal/cache"
	"umi/internal/rio"
	"umi/internal/vm"
)

// Attribution contract: the per-stage report must reconcile exactly with
// the cost model and the runtime's overhead ledger, stay deterministic
// across runs, and be assemblable from the registry alone, live or after
// Finish.

func TestOverheadAttributionSums(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	s, rt := runUMI(t, prog, cfg)
	r := s.Overhead()

	if r.GuestCycles == 0 || r.OverheadCycles == 0 {
		t.Fatalf("empty report: %+v", r)
	}
	if r.GuestCycles != rt.M.Cycles {
		t.Errorf("GuestCycles = %d, want the machine's %d", r.GuestCycles, rt.M.Cycles)
	}
	if r.OverheadCycles != rt.Overhead {
		t.Errorf("OverheadCycles = %d, want the runtime ledger's %d", r.OverheadCycles, rt.Overhead)
	}
	// Stage charges must match the cost model applied to the counted
	// events, and the stages (with the substrate remainder) must partition
	// the ledger exactly.
	snap := s.MetricsSnapshot()
	wantFill := cfg.PrologCost*snap.Counter("umi.stage.fill.prologs") +
		cfg.PerRefCost*snap.Counter("umi.stage.fill.refs")
	if got := r.Stage("fill").ModelledCycles; got != wantFill {
		t.Errorf("fill cycles = %d, want %d", got, wantFill)
	}
	instrEv := snap.Counter("umi.traces.instrumented") + snap.Counter("umi.traces.deinstrumented")
	if got := r.Stage("instrument").ModelledCycles; got != cfg.InstrumentCost*instrEv {
		t.Errorf("instrument cycles = %d, want %d", got, cfg.InstrumentCost*instrEv)
	}
	var sum uint64
	for _, st := range r.Stages {
		sum += st.ModelledCycles
	}
	if sum != r.OverheadCycles {
		t.Errorf("stages sum to %d cycles, ledger says %d", sum, r.OverheadCycles)
	}
	// The observational stages carry no modelled cost by construction.
	for _, name := range []string{"prep", "history", "emit"} {
		if c := r.Stage(name).ModelledCycles; c != 0 {
			t.Errorf("observational stage %s charged %d cycles", name, c)
		}
	}
}

// TestOverheadPrepWall: stride discovery is timed inside each profile's
// analysis, so the prep row measures wall, never more than the analyze
// wall it is part of, and its events stay the profile count.
func TestOverheadPrepWall(t *testing.T) {
	s, _ := runUMI(t, strideWorkload(t, 400_000), testConfig())
	r := s.Overhead()
	prep, analyze := r.Stage("prep"), r.Stage("analyze")
	if prep.WallNs == 0 {
		t.Error("prep stage measured no wall")
	}
	if prep.WallNs > analyze.WallNs {
		t.Errorf("prep wall %d ns exceeds the analyze wall %d ns it is part of", prep.WallNs, analyze.WallNs)
	}
	if want := uint64(s.Report().ProfilesCollected); prep.Events != want || want == 0 {
		t.Errorf("prep events = %d, want the %d profiles collected", prep.Events, want)
	}
	if n := s.MetricsSnapshot().Histogram("umi.stage.prep.latency_ns").Count; n == 0 {
		t.Error("prep latency histogram is empty")
	}
}

// TestOverheadDeterministic: the modelled render is byte-identical across
// repeated runs; only the wall view may differ.
func TestOverheadDeterministic(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	render := func() string {
		cfg := testConfig()
		cfg.BurstPeriod = 8
		cfg.SamplerSeed = 7
		s, _ := runUMI(t, prog, cfg)
		return s.Overhead().String()
	}
	want := render()
	if !strings.Contains(want, "self-overhead: guest") {
		t.Fatalf("unexpected render:\n%s", want)
	}
	if got := render(); got != want {
		t.Errorf("render differs between runs:\n got: %s\nwant: %s", got, want)
	}
}

// TestLiveOverheadFromRegistry: Overhead and MetricsSnapshot read only
// the registry, so another goroutine may call them while the guest runs
// (the race detector checks that), and once Finish has synced every
// mirror they report the guest's final clocks and rio counters.
func TestLiveOverheadFromRegistry(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	rt := rio.NewRuntime(vm.New(prog, cache.NewP4(false)))
	s := Attach(rt, testConfig())
	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			s.Overhead()
			s.MetricsSnapshot()
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	<-started
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	close(stop)
	<-stopped

	want := s.Overhead()
	if want.GuestCycles != rt.M.Cycles || want.OverheadCycles != rt.Overhead {
		t.Errorf("report after Finish: guest %d overhead %d cycles, runtime %d/%d",
			want.GuestCycles, want.OverheadCycles, rt.M.Cycles, rt.Overhead)
	}
	snap, c := s.MetricsSnapshot(), rt.Counters()
	for name, n := range map[string]uint64{
		"rio.blocks_built": uint64(c.BlocksBuilt),
		"rio.traces_built": uint64(c.TracesBuilt),
		"rio.dispatches":   c.Dispatches,
		"rio.samples":      c.Samples,
	} {
		if got := snap.Counter(name); got != n || n == 0 {
			t.Errorf("snapshot after Finish: %s = %d, runtime %d", name, got, n)
		}
	}
	// The wall view renders from the same report (never golden-compared:
	// it carries measured time) and skips the modelled-only substrate row.
	wall := want.LiveString()
	for _, wantStr := range []string{"self-overhead (wall): run", "(sampled estimate)", "prep"} {
		if !strings.Contains(wall, wantStr) {
			t.Errorf("LiveString missing %q:\n%s", wantStr, wall)
		}
	}
	if strings.Contains(wall, "substrate") {
		t.Errorf("LiveString rendered the modelled-only substrate row:\n%s", wall)
	}
	if st := want.Stage("no-such-stage"); st.ModelledCycles != 0 || st.Stage != "" {
		t.Errorf("unknown stage lookup = %+v, want the zero cost", st)
	}
}

// TestOverheadPromRender: the report's families carry every headline and
// per-stage family, declared once with one stage-labeled sample per stage.
func TestOverheadPromRender(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	s, _ := runUMI(t, prog, testConfig())
	r := s.Overhead()

	out := promText(r.Families())
	for _, want := range []string{
		"# TYPE umi_overhead_guest_cycles gauge\n",
		fmt.Sprintf("umi_overhead_guest_cycles %d\n", r.GuestCycles),
		"# TYPE umi_overhead_ratio gauge\n",
		fmt.Sprintf(`umi_overhead_stage_cycles{stage="fill"} %d`+"\n", r.Stage("fill").ModelledCycles),
		`umi_overhead_stage_wall_ns{stage="analyze"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c := strings.Count(out, `umi_overhead_stage_cycles{`); c != len(r.Stages) {
		t.Errorf("%d stage samples, want %d:\n%s", c, len(r.Stages), out)
	}
	if fams := (*OverheadReport)(nil).Families(); fams != nil {
		t.Errorf("nil report rendered %v", fams)
	}
}
