package umi

import (
	"encoding/json"
	"strings"
	"testing"

	"umi/internal/metrics"
)

// historyKey serializes a HistoryView for byte-exact comparison.
func historyKey(t *testing.T, v HistoryView) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal history: %v", err)
	}
	return string(b)
}

// TestHistoryInert: capture only reads modelled state, so the full report —
// delinquent set, miss ratios, modelled cycles — is byte-identical whether
// the history ring exists (default), is tiny, or is disabled outright.
func TestHistoryInert(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	cfg := testConfig()
	cfg.HistoryWindows = -1 // capture disabled
	off := runKey(t, prog, cfg)

	cfg.HistoryWindows = 0 // default ring
	if on := runKey(t, prog, cfg); on != off {
		t.Errorf("history-on report differs from history-off:\n  on  %s\n  off %s", on, off)
	}
	cfg.HistoryWindows = 2 // tiny ring, maximal dropping
	if tiny := runKey(t, prog, cfg); tiny != off {
		t.Error("tiny-ring report differs from history-off")
	}
}

// TestHistoryDisabled: a negative HistoryWindows yields the empty view.
func TestHistoryDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryWindows = -1
	s, _ := runUMI(t, strideWorkload(t, 200_000), cfg)
	v := s.History()
	if v.Schema != historySchema || v.Total != 0 || len(v.Windows) != 0 {
		t.Errorf("disabled history view = %+v, want empty", v)
	}
}

// TestHistoryWindowContent cross-checks the recorded windows against the
// analyzer's cumulative accounting: invocation numbers are 1..N and cycle
// stamps nondecreasing, per-window refs sum to SimulatedRefs, and the last
// window's cumulative miss ratio is the report's.
func TestHistoryWindowContent(t *testing.T) {
	cfg := testConfig()
	s, _ := runUMI(t, strideWorkload(t, 400_000), cfg)
	rep := s.Report()
	v := s.History()
	if v.Total == 0 || int(v.Total) != rep.AnalyzerInvocations {
		t.Fatalf("Total = %d, want %d invocations", v.Total, rep.AnalyzerInvocations)
	}
	if v.Dropped != v.Total-uint64(len(v.Windows)) {
		t.Errorf("Dropped = %d, want %d", v.Dropped, v.Total-uint64(len(v.Windows)))
	}
	var refs uint64
	prevCyc := uint64(0)
	for i, w := range v.Windows {
		if want := int(v.Dropped) + i + 1; w.Invocation != want {
			t.Errorf("window %d: Invocation = %d, want %d", i, w.Invocation, want)
		}
		if w.Cycles < prevCyc {
			t.Errorf("window %d: cycle stamp decreased (%d < %d)", i, w.Cycles, prevCyc)
		}
		prevCyc = w.Cycles
		refs += w.Refs
		if w.Accesses > 0 {
			if want := float64(w.Misses) / float64(w.Accesses); w.WindowMissRatio != want {
				t.Errorf("window %d: WindowMissRatio = %v, want %v", i, w.WindowMissRatio, want)
			}
		} else if w.WindowMissRatio != 0 {
			t.Errorf("window %d: empty window has miss ratio %v", i, w.WindowMissRatio)
		}
		if w.Jaccard < 0 || w.Jaccard > 1 {
			t.Errorf("window %d: Jaccard = %v out of [0,1]", i, w.Jaccard)
		}
	}
	if v.Dropped == 0 && refs != rep.SimulatedRefs {
		t.Errorf("windowed refs sum = %d, want SimulatedRefs %d", refs, rep.SimulatedRefs)
	}
	last := v.Windows[len(v.Windows)-1]
	if last.CumMissRatio != rep.SimMissRatio {
		t.Errorf("last CumMissRatio = %v, want report SimMissRatio %v",
			last.CumMissRatio, rep.SimMissRatio)
	}
}

// TestHistoryRingBounded: a small ring retains only the newest windows and
// accounts for every drop.
func TestHistoryRingBounded(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryWindows = 3
	s, _ := runUMI(t, manyLoopsWorkload(t, 8, 30_000), cfg)
	v := s.History()
	if v.Cap != 3 {
		t.Fatalf("Cap = %d, want 3", v.Cap)
	}
	if v.Total <= 3 {
		t.Skipf("workload produced only %d windows; cannot exercise overwrite", v.Total)
	}
	if len(v.Windows) != 3 {
		t.Fatalf("retained %d windows, want 3", len(v.Windows))
	}
	if v.Dropped != v.Total-3 {
		t.Errorf("Dropped = %d, want %d", v.Dropped, v.Total-3)
	}
	// The retained windows are the newest: the last one carries the final
	// invocation number.
	if got, want := v.Windows[2].Invocation, int(v.Total); got != want {
		t.Errorf("newest retained invocation = %d, want %d", got, want)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint64
		want float64
	}{
		{nil, nil, 1},
		{[]uint64{1}, nil, 0},
		{nil, []uint64{1}, 0},
		{[]uint64{1, 2, 3}, []uint64{1, 2, 3}, 1},
		{[]uint64{1, 2}, []uint64{2, 3}, 1.0 / 3},
		{[]uint64{1, 2, 3, 4}, []uint64{3, 4, 5, 6}, 2.0 / 6},
		{[]uint64{1}, []uint64{2}, 0},
	}
	for i, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("case %d: jaccard(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestHashPCs(t *testing.T) {
	if hashPCs(nil) != fnvOffset {
		t.Error("empty set must hash to the FNV offset basis")
	}
	a := hashPCs([]uint64{0x400000, 0x400008})
	b := hashPCs([]uint64{0x400000, 0x400010})
	if a == b {
		t.Error("different sets hashed equal")
	}
	if a != hashPCs([]uint64{0x400000, 0x400008}) {
		t.Error("hash not deterministic")
	}
}

// TestPhaseChangeDetection drives captureWindow directly on a standalone
// analyzer, mutating the cumulative counters between captures to trigger
// each phase rule separately.
func TestPhaseChangeDetection(t *testing.T) {
	cfg := testConfig()
	a := NewAnalyzer(&cfg)
	a.hist = newHistory(8, 0.05, 0.5)

	// Window 1: baseline. First window never flags a phase change.
	a.Invocations = 1
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 100, 100, 10
	a.delinquent[0x400000] = true
	a.delinquent[0x400008] = true
	a.captureWindow(1000, nil)

	// Window 2: same miss ratio, same set — no phase change.
	a.Invocations = 2
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 200, 200, 20
	a.captureWindow(2000, nil)

	// Window 3: window miss ratio jumps 0.10 → 0.60 (> missDelta).
	a.Invocations = 3
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 300, 300, 80
	a.captureWindow(3000, nil)

	// Window 4: ratio held at 0.60, but the delinquent set is replaced
	// wholesale — churn 1 − Jaccard = 1 > churnDelta.
	a.Invocations = 4
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 400, 400, 140
	delete(a.delinquent, 0x400000)
	delete(a.delinquent, 0x400008)
	a.delinquent[0x500000] = true
	a.delinquent[0x500008] = true
	a.captureWindow(4000, nil)

	w := a.hist.Windows()
	if len(w) != 4 {
		t.Fatalf("recorded %d windows, want 4", len(w))
	}
	wantPhase := []bool{false, false, true, true}
	for i, want := range wantPhase {
		if w[i].PhaseChange != want {
			t.Errorf("window %d: PhaseChange = %v, want %v", i+1, w[i].PhaseChange, want)
		}
	}
	if w[0].Jaccard != 1 {
		t.Errorf("first window Jaccard = %v, want 1", w[0].Jaccard)
	}
	if w[3].Jaccard != 0 {
		t.Errorf("replaced-set Jaccard = %v, want 0", w[3].Jaccard)
	}
	if w[3].NewDelinquent != 0 {
		t.Errorf("NewDelinquent = %d, want 0 (size unchanged)", w[3].NewDelinquent)
	}
	if w[2].WindowMissRatio != 0.6 {
		t.Errorf("window 3 miss ratio = %v, want 0.6", w[2].WindowMissRatio)
	}
	if a.hist.View().PhaseChanges != 2 {
		t.Errorf("PhaseChanges = %d, want 2", a.hist.View().PhaseChanges)
	}
}

func TestModalStride(t *testing.T) {
	mk := func(strides ...int64) map[uint64]StrideInfo {
		m := make(map[uint64]StrideInfo)
		for i, s := range strides {
			m[uint64(i)] = StrideInfo{Stride: s}
		}
		return m
	}
	cases := []struct {
		in   map[uint64]StrideInfo
		want int64
	}{
		{nil, 0},
		{mk(8), 8},
		{mk(8, 8, 64), 8},
		{mk(-8, 8), 8},    // tie: positive wins
		{mk(64, 4, 4), 4}, // count beats magnitude
	}
	for i, c := range cases {
		if got := modalStride(c.in); got != c.want {
			t.Errorf("case %d: modalStride = %d, want %d", i, got, c.want)
		}
	}
}

func TestFormatHistory(t *testing.T) {
	if got := FormatHistory(nil); got != "phase history: no analyzer invocations\n" {
		t.Errorf("empty FormatHistory = %q", got)
	}
	cfg := testConfig()
	s, _ := runUMI(t, strideWorkload(t, 300_000), cfg)
	v := s.History()
	out := FormatHistory(v.Windows)
	if out != FormatHistory(v.Windows) {
		t.Error("FormatHistory not deterministic")
	}
	if !strings.Contains(out, "win-miss") || !strings.Contains(out, "jaccard") {
		t.Errorf("header missing columns:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != len(v.Windows)+2 {
		t.Errorf("rendered %d lines, want %d", lines, len(v.Windows)+2)
	}
}

// promText renders families as one unlabeled exposition.
func promText(fams []metrics.Family) string {
	var sb strings.Builder
	metrics.WritePrometheus(&sb, metrics.Labeled{Families: fams})
	return sb.String()
}

// TestWriteHistoryProm: the history view's families in the exposition.
func TestWriteHistoryProm(t *testing.T) {
	// Empty view: the three counters appear, no gauges, and no NaN ever.
	out := promText((*History)(nil).View().Families())
	for _, c := range []string{
		"umi_phase_windows_total 0",
		"umi_phase_windows_dropped_total 0",
		"umi_phase_changes_total 0",
	} {
		if !strings.Contains(out, c) {
			t.Errorf("empty exposition missing %q:\n%s", c, out)
		}
	}
	if strings.Contains(out, "gauge") || strings.Contains(out, "NaN") {
		t.Errorf("empty exposition must carry no gauges:\n%s", out)
	}

	// Live view: gauges track the newest window.
	cfg := testConfig()
	s, _ := runUMI(t, strideWorkload(t, 300_000), cfg)
	out = promText(s.History().Families())
	for _, c := range []string{
		"# TYPE umi_phase_windows_total counter",
		"# TYPE umi_phase_window_miss_ratio gauge",
		"umi_phase_delinquent_size",
		"umi_phase_last_cycles",
	} {
		if !strings.Contains(out, c) {
			t.Errorf("exposition missing %q:\n%s", c, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("exposition contains NaN:\n%s", out)
	}
}

// TestEmptyDelinquentWindowsNoChurn is the regression test for the
// Jaccard empty∩empty case: two consecutive windows with an empty
// delinquent set must read as similarity 1.0 (no churn), not 0/0 → 0 —
// an idle phase must not trip PhaseChange through the churn rule.
func TestEmptyDelinquentWindowsNoChurn(t *testing.T) {
	cfg := testConfig()
	a := NewAnalyzer(&cfg)
	a.hist = newHistory(8, 0.05, 0.5)

	// Two quiet windows: steady miss ratio, no delinquent loads at all.
	a.Invocations = 1
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 100, 100, 10
	a.captureWindow(1000, nil)
	a.Invocations = 2
	a.SimulatedRefs, a.totalAcc, a.totalMiss = 200, 200, 20
	a.captureWindow(2000, nil)

	w := a.hist.Windows()
	if len(w) != 2 {
		t.Fatalf("recorded %d windows, want 2", len(w))
	}
	for i, win := range w {
		if win.Delinquent != 0 {
			t.Fatalf("window %d: Delinquent = %d, want 0", i+1, win.Delinquent)
		}
		if win.Jaccard != 1 {
			t.Errorf("window %d: empty∩empty Jaccard = %v, want 1.0", i+1, win.Jaccard)
		}
		if win.PhaseChange {
			t.Errorf("window %d: spurious PhaseChange on an idle window", i+1)
		}
	}
}
