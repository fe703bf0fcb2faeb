package umi

import (
	"fmt"
	"strings"
	"testing"
)

// Attribution contract: the per-stage report must reconcile exactly with
// the cost model and the runtime's overhead ledger, stay deterministic
// across runs and worker counts, and be assemblable live from the
// registry alone.

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

// TestLiveOverheadFromRegistry: the live report must be assemblable from
// the registry alone and agree with the drained report at quiescence.
func TestLiveOverheadFromRegistry(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	s, _ := runUMI(t, prog, testConfig())
	want := s.Overhead()
	live := s.LiveOverhead()
	if live.GuestCycles != want.GuestCycles || live.OverheadCycles != want.OverheadCycles {
		t.Errorf("live report differs at quiescence: live %d/%d, drained %d/%d",
			live.GuestCycles, live.OverheadCycles, want.GuestCycles, want.OverheadCycles)
	}
	for _, st := range want.Stages {
		if live.Stage(st.Stage).ModelledCycles != st.ModelledCycles {
			t.Errorf("stage %s: live %d cycles, drained %d",
				st.Stage, live.Stage(st.Stage).ModelledCycles, st.ModelledCycles)
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
