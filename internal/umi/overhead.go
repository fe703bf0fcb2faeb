package umi

import (
	"fmt"
	"strings"
	"time"

	"umi/internal/metrics"
)

// Per-stage self-overhead attribution: the observatory behind the paper's
// "cheap enough to leave on" claim. Every introspection stage is stamped
// twice — with modelled cycles from the configured cost model (the cost
// the guest is actually charged, fully deterministic) and with measured
// wall nanoseconds (what the host really paid, reported separately so the
// deterministic render stays golden-testable). The stages:
//
//	instrument  clone-and-patch + swap-back (InstrumentCost × events)
//	fill        guest-thread profile filling: prologs (PrologCost each)
//	            plus recorded references (PerRefCost each)
//	analyze     analyzer invocations (the AnalyzerFixed/AnalyzerPerRef
//	            cost charged at hand-off, inline or pipelined)
//	prep        stride discovery, timed inside each profile's analysis:
//	            its wall is part of analyze's, not added to it (modelled
//	            0: the analyze charge already covers it); events are the
//	            profiles collected
//	history     window capture (observational: modelled 0)
//	emit        wire emit + LiveShipper writes (observational: modelled 0)
//	substrate   everything rio charges below UMI: dispatch, block/trace
//	            building, sample events
//
// All cells live in the metrics registry (single-writer atomics), so the
// live introspection endpoint can assemble a report mid-run without
// touching guest-owned state; the guest mirrors its cycle clock and
// cumulative overhead into gauges at analyzer-invocation boundaries.

// OverheadSchema identifies the OverheadReport JSON shape.
const OverheadSchema = "umi-overhead/v1"

// prologWallSample is the fill-stage wall estimator's sampling period:
// one in this many prolog executions is timed and the reading scaled up.
const prologWallSample = 64

// StageCost is one introspection stage's share of the run.
type StageCost struct {
	Stage  string `json:"stage"`
	Events uint64 `json:"events"`
	// ModelledCycles is the stage's deterministic cost-model charge;
	// CycleRatio relates it to the guest's own cycle count.
	ModelledCycles uint64  `json:"modelled_cycles"`
	CycleRatio     float64 `json:"cycle_ratio"`
	// WallNs is the measured host cost (0 where nothing is measured);
	// WallRatio relates it to the run's wall time.
	WallNs    uint64  `json:"wall_ns"`
	WallRatio float64 `json:"wall_ratio"`
}

// OverheadReport attributes a run's introspection cost per stage.
type OverheadReport struct {
	Schema string `json:"schema"`
	// GuestCycles is the modelled application work; OverheadCycles is
	// everything charged on top of it (UMI stages + substrate), so
	// OverheadRatio is the paper's self-overhead figure in model cycles.
	GuestCycles    uint64  `json:"guest_cycles"`
	OverheadCycles uint64  `json:"overhead_cycles"`
	OverheadRatio  float64 `json:"overhead_ratio"`
	// GuestWallNs is the run's measured wall time (final after Finish;
	// a live report shows the wall so far).
	GuestWallNs uint64      `json:"guest_wall_ns"`
	Stages      []StageCost `json:"stages"`
}

// Stage returns the named stage's cost (zero value when absent).
func (r *OverheadReport) Stage(name string) StageCost {
	for _, st := range r.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageCost{}
}

// syncGuestMirrors publishes the guest-owned clocks into registry gauges
// so report assembly (including the live HTTP path) never reads
// guest-owned state. Guest thread only; called at analyzer-invocation
// boundaries, at Finish, and at snapshot points.
func (s *System) syncGuestMirrors() {
	s.met.GuestCycles.Set(int64(s.now()))
	s.met.GuestOverheadCyc.Set(int64(s.rt.Overhead))
	s.met.GuestWallNs.Set(int64(time.Since(s.wallStart)))
}

// Overhead assembles the end-of-run (or checkpoint) attribution report,
// synchronizing with the analysis pipeline first so every stage's cells
// are settled. The modelled fields are deterministic: same program, same
// config, same seed ⇒ identical values at any worker count.
func (s *System) Overhead() *OverheadReport {
	s.pool.drain()
	s.syncGuestMirrors()
	return buildOverhead(s.met.reg.Snapshot(), &s.cfg)
}

// LiveOverhead assembles a report from the registry as-is — safe from any
// goroutine mid-run (the HTTP introspection path). Guest-clock mirrors
// lag by up to one analyzer invocation.
func (s *System) LiveOverhead() *OverheadReport {
	return buildOverhead(s.met.reg.Snapshot(), &s.cfg)
}

func buildOverhead(snap metrics.Snapshot, cfg *Config) *OverheadReport {
	guest := uint64(snap.Gauge("umi.guest.cycles").Value)
	ovhd := uint64(snap.Gauge("umi.guest.overhead_cycles").Value)
	wall := uint64(snap.Gauge("umi.guest.wall_ns").Value)

	instrEv := snap.Counter("umi.traces.instrumented") + snap.Counter("umi.traces.deinstrumented")
	instrCyc := cfg.InstrumentCost * instrEv
	prologs := snap.Counter("umi.stage.fill.prologs")
	refs := snap.Counter("umi.stage.fill.refs")
	fillCyc := cfg.PrologCost*prologs + cfg.PerRefCost*refs
	anCyc := snap.Counter("umi.stage.analyze.cycles")
	var substrate uint64
	if tracked := instrCyc + fillCyc + anCyc; ovhd > tracked {
		substrate = ovhd - tracked
	}

	mk := func(name string, events, cycles, wallNs uint64) StageCost {
		st := StageCost{Stage: name, Events: events, ModelledCycles: cycles, WallNs: wallNs}
		if guest > 0 {
			st.CycleRatio = float64(cycles) / float64(guest)
		}
		if wall > 0 {
			st.WallRatio = float64(wallNs) / float64(wall)
		}
		return st
	}
	r := &OverheadReport{
		Schema:         OverheadSchema,
		GuestCycles:    guest,
		OverheadCycles: ovhd,
		GuestWallNs:    wall,
		Stages: []StageCost{
			mk("instrument", instrEv, instrCyc, snap.Counter("umi.stage.instrument.wall_ns")),
			mk("fill", prologs, fillCyc, snap.Counter("umi.stage.fill.wall_ns")),
			mk("analyze", snap.Counter("umi.analyzer.invocations"), anCyc, snap.Counter("umi.stage.analyze.wall_ns")),
			mk("prep", snap.Counter("umi.profiles.collected"), 0, snap.Counter("umi.pool.prep_busy_ns")),
			mk("history", snap.Histogram("umi.stage.history.latency_ns").Count, 0, snap.Counter("umi.stage.history.wall_ns")),
			mk("emit", snap.Counter("umi.stage.emit.frames"), 0, snap.Counter("umi.stage.emit.wall_ns")),
			mk("substrate", 0, substrate, 0),
		},
	}
	if guest > 0 {
		r.OverheadRatio = float64(ovhd) / float64(guest)
	}
	return r
}

// String renders the deterministic (modelled-cycles) view: golden-safe,
// byte-identical at every worker count. Wall measurements live in
// LiveString.
func (r *OverheadReport) String() string {
	if r == nil || r.GuestCycles == 0 {
		return "self-overhead: no guest cycles recorded\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "self-overhead: guest %d cycles, introspection %d cycles (%.3f%% of guest)\n",
		r.GuestCycles, r.OverheadCycles, 100*r.OverheadRatio)
	fmt.Fprintf(&sb, "  %-11s %12s %14s %9s\n", "stage", "events", "cycles", "of-guest")
	for _, st := range r.Stages {
		cyc := fmt.Sprintf("%d", st.ModelledCycles)
		pct := fmt.Sprintf("%.3f%%", 100*st.CycleRatio)
		if st.ModelledCycles == 0 && (st.Stage == "prep" || st.Stage == "history" || st.Stage == "emit") {
			cyc, pct = "-", "-" // observational: modelled cost 0 by construction
		}
		fmt.Fprintf(&sb, "  %-11s %12d %14s %9s\n", st.Stage, st.Events, cyc, pct)
	}
	return sb.String()
}

// LiveString renders the measured-wall view. Nondeterministic by nature;
// the fill row is a sampled estimate (see prologWallSample).
func (r *OverheadReport) LiveString() string {
	if r == nil || r.GuestWallNs == 0 {
		return "self-overhead (wall): no wall time recorded\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "self-overhead (wall): run %s\n", time.Duration(r.GuestWallNs))
	fmt.Fprintf(&sb, "  %-11s %12s %9s\n", "stage", "wall", "of-run")
	for _, st := range r.Stages {
		if st.Stage == "substrate" {
			continue // modelled-only: rio's wall cost is the run itself
		}
		note := ""
		if st.Stage == "fill" {
			note = "  (sampled estimate)"
		}
		fmt.Fprintf(&sb, "  %-11s %12s %8.3f%%%s\n",
			st.Stage, time.Duration(st.WallNs).String(), 100*st.WallRatio, note)
	}
	return sb.String()
}

// Families renders the report for the Prometheus exposition: the headline
// cycle counts and ratio, and per-stage cycle and wall families labeled by
// stage — the derived view dashboards want next to the raw umi_stage_*
// families the registry already exposes. A nil report renders nothing.
func (r *OverheadReport) Families() []metrics.Family {
	if r == nil {
		return nil
	}
	cycles := metrics.Family{Name: "umi_overhead_stage_cycles", Type: "gauge"}
	wall := metrics.Family{Name: "umi_overhead_stage_wall_ns", Type: "gauge"}
	for _, st := range r.Stages {
		stage := [2]string{"stage", st.Stage}
		cycles.Samples = append(cycles.Samples, metrics.Sample{Label: stage, Value: fmt.Sprint(st.ModelledCycles)})
		wall.Samples = append(wall.Samples, metrics.Sample{Label: stage, Value: fmt.Sprint(st.WallNs)})
	}
	return []metrics.Family{
		metrics.Scalar("umi_overhead_guest_cycles", "gauge", fmt.Sprint(r.GuestCycles)),
		metrics.Scalar("umi_overhead_cycles_total", "gauge", fmt.Sprint(r.OverheadCycles)),
		metrics.Scalar("umi_overhead_ratio", "gauge", promFloat(r.OverheadRatio)),
		cycles, wall,
	}
}
