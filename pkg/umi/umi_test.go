package umi

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"umi/internal/harness"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/workloads"
)

// demo builds a streaming workload with one delinquent strided load.
func demo(t *testing.T) *Program {
	t.Helper()
	b := NewProgram("demo")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.MovI(isa.R6, 400_000)
	e.MovI(isa.R2, int64(program.HeapBase))
	l := b.Block("loop")
	l.Load(isa.R1, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0))
	l.Add(isa.R7, isa.R7, isa.R1)
	l.AddI(isa.R0, isa.R0, 8)
	l.Br(isa.CondLT, isa.R0, isa.R6, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestSessionBasic(t *testing.T) {
	p := demo(t)
	sess := NewSession(p)
	rep, err := sess.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep == nil || sess.Report() != rep {
		t.Fatal("report plumbing broken")
	}
	if len(rep.Delinquent) == 0 {
		t.Error("streaming load must be predicted delinquent")
	}
	if sess.HardwareMissRatio() <= 0.5 {
		t.Errorf("hardware miss ratio = %.3f, want streaming-high", sess.HardwareMissRatio())
	}
	if sess.TotalCycles() == 0 || sess.GuestInstructions() == 0 {
		t.Error("cycle accounting missing")
	}
	if _, err := sess.Run(); !errors.Is(err, ErrAlreadyRun) {
		t.Errorf("second Run = %v, want ErrAlreadyRun", err)
	}
}

func TestSessionK7(t *testing.T) {
	p := demo(t)
	sess := NewSession(p, WithMachine(AMDK7))
	if _, err := sess.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sess.HardwareMissRatio() <= 0 {
		t.Error("K7 run produced no hardware statistics")
	}
}

func TestSessionSoftwarePrefetch(t *testing.T) {
	p := demo(t)
	plain := NewSession(p)
	if _, err := plain.Run(); err != nil {
		t.Fatalf("plain: %v", err)
	}
	pf := NewSession(p, WithSoftwarePrefetch())
	if _, err := pf.Run(); err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	if pf.PrefetchesInserted() == 0 {
		t.Fatal("no prefetches inserted")
	}
	if pf.TotalCycles() >= plain.TotalCycles() {
		t.Errorf("prefetching did not speed up the stream: %d >= %d",
			pf.TotalCycles(), plain.TotalCycles())
	}
	if pf.HardwareL2Misses() >= plain.HardwareL2Misses() {
		t.Errorf("prefetching did not cut misses: %d >= %d",
			pf.HardwareL2Misses(), plain.HardwareL2Misses())
	}
}

func TestSessionOptions(t *testing.T) {
	p := demo(t)
	sess := NewSession(p,
		WithHWPrefetch(),
		WithoutSampling(),
		WithFrequencyThreshold(4),
		WithSamplePeriod(1000),
		WithAddressProfileRows(128),
		WithGlobalDelinquencyThreshold(0.5),
		WithMaxInstructions(50_000_000),
	)
	if _, err := sess.Run(); err != nil {
		t.Fatalf("Run with options: %v", err)
	}
}

func TestSessionBudget(t *testing.T) {
	p := demo(t)
	sess := NewSession(p, WithMaxInstructions(1000))
	if _, err := sess.Run(); err == nil {
		t.Error("tiny budget must surface the runtime error")
	}
}

func TestSessionAnalyses(t *testing.T) {
	quarter := PentiumL2()
	quarter.Size /= 4
	quarter.Name = "L2/4"
	sess := NewSession(demo(t),
		WithWorkingSet(),
		WithPatternCensus(),
		WithWhatIf(quarter, PentiumL2()),
	)
	if _, err := sess.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ws := sess.WorkingSet()
	if ws == nil || ws.Refs == 0 || ws.DistinctLines() == 0 {
		t.Fatalf("working set missing or empty: %v", ws)
	}
	pats := sess.Patterns()
	if pats == nil {
		t.Fatal("pattern census missing")
	}
	if got := pats.Counts()[PatternStrided]; got == 0 {
		t.Errorf("strided pattern not detected: %v", pats.Summary())
	}
	res := sess.WhatIfResults()
	if len(res) != 2 || res[0].Accesses == 0 {
		t.Fatalf("what-if results = %+v", res)
	}
}

func TestSessionAnalysesNilBeforeOptIn(t *testing.T) {
	sess := NewSession(demo(t))
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sess.WorkingSet() != nil || sess.Patterns() != nil || sess.WhatIfResults() != nil {
		t.Error("analyses must be nil without opt-in")
	}
}

func TestSessionEventTrace(t *testing.T) {
	p := demo(t)
	plain := NewSession(p)
	if _, err := plain.Run(); err != nil {
		t.Fatalf("plain: %v", err)
	}
	if plain.EventLog() != nil || plain.Events() != nil {
		t.Error("event log must be nil without WithEventTrace")
	}
	traced := NewSession(p, WithEventTrace(0))
	if _, err := traced.Run(); err != nil {
		t.Fatalf("traced: %v", err)
	}
	evs := traced.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// Tracing must not perturb the modelled run.
	if got, want := traced.TotalCycles(), plain.TotalCycles(); got != want {
		t.Errorf("TotalCycles with trace = %d, without = %d", got, want)
	}
	if got, want := traced.Report().String(), plain.Report().String(); got != want {
		t.Errorf("Report with trace = %s, without = %s", got, want)
	}
	// The renderers are reachable through the public surface.
	if out := FormatTimeline(evs, traced.EventLog().Drops()); out == "" {
		t.Error("FormatTimeline returned empty output")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("Chrome trace is not valid JSON")
	}
}

func TestSessionCacheBypass(t *testing.T) {
	sess := NewSession(demo(t), WithCacheBypass())
	if _, err := sess.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sess.LoadsBypassed() == 0 {
		t.Error("streaming load must be rewritten to bypass")
	}
}

func TestSessionHistory(t *testing.T) {
	p := demo(t)
	sess := NewSession(p, WithHistory(4))
	if v := sess.History(); v.Total != 0 || len(v.Windows) != 0 || v.Schema == "" {
		t.Fatalf("pre-Run history = %+v, want empty schema-stamped view", v)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := sess.History()
	if v.Schema != "umi-history/v1" {
		t.Errorf("schema = %q", v.Schema)
	}
	if v.Total == 0 || len(v.Windows) == 0 {
		t.Fatalf("history empty after a profiled run: %+v", v)
	}
	if v.Cap != 4 || len(v.Windows) > 4 {
		t.Errorf("ring cap not honored: cap=%d retained=%d", v.Cap, len(v.Windows))
	}
	if int(v.Total) != sess.Report().AnalyzerInvocations {
		t.Errorf("Total = %d, want %d analyzer invocations",
			v.Total, sess.Report().AnalyzerInvocations)
	}
	out := FormatHistory(v.Windows)
	if out == "" || out == FormatHistory(nil) {
		t.Errorf("FormatHistory render = %q", out)
	}

	// WithHistory(-1) disables capture without touching the report.
	off := NewSession(p, WithHistory(-1))
	if _, err := off.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v := off.History(); v.Total != 0 || len(v.Windows) != 0 {
		t.Errorf("disabled history = %+v, want empty", v)
	}
	if a, b := off.Report().String(), sess.Report().String(); a != b {
		t.Errorf("history setting perturbed the report:\n%s\nvs\n%s", a, b)
	}
}

// TestSessionMatchesHarness: Session.Run uses the harness's platform
// models and UMI parameters, so a session on 181.mcf marshals the same
// Report, at the same TotalCycles, as harness.RunUMI with the same
// settings — on the P4 with its hardware prefetchers, and on the K7.
func TestSessionMatchesHarness(t *testing.T) {
	w, ok := workloads.ByName("181.mcf")
	if !ok {
		t.Fatal("workload 181.mcf missing")
	}
	for _, tc := range []struct {
		name string
		plat *harness.Platform
		hw   bool
		opts []Option
	}{
		{"p4-hwpf", harness.P4, true, []Option{WithHWPrefetch()}},
		{"k7", harness.K7, false, []Option{WithMachine(AMDK7)}},
	} {
		sess := NewSession(w.Program(), tc.opts...)
		rep, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		run, err := harness.RunUMI(w, tc.plat, harness.UMIParams(tc.plat), tc.hw, false)
		if err != nil {
			t.Fatalf("%s: RunUMI: %v", tc.name, err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(run.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: session report differs from the harness's:\n got  %s\n want %s", tc.name, got, want)
		}
		if got, want := sess.TotalCycles(), run.RT.TotalCycles(); got != want {
			t.Errorf("%s: TotalCycles = %d, harness %d", tc.name, got, want)
		}
	}
}
