package umi

import (
	"bytes"
	"testing"

	"umi/internal/cache"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/vm"
)

// runUMITraced is runUMI with the structured event log attached.
func runUMITraced(t *testing.T, p *program.Program, cfg Config, capacity int) (*System, *rio.Runtime, *tracelog.Log) {
	t.Helper()
	h := cache.NewP4(false)
	m := vm.New(p, h)
	rt := rio.NewRuntime(m)
	s := Attach(rt, cfg)
	l := s.EnableEventTrace(capacity)
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	return s, rt, l
}

// TestEventTraceDoesNotPerturbReports is the acceptance gate for the
// observability layer: enabling the event log must leave every modelled
// number byte-identical.
func TestEventTraceDoesNotPerturbReports(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	sOff, rtOff := runUMI(t, prog, testConfig())
	sOn, rtOn, l := runUMITraced(t, prog, testConfig(), 0)
	if l.Total() == 0 {
		t.Fatal("event log recorded nothing")
	}
	if off, on := systemKey(sOff, rtOff), systemKey(sOn, rtOn); off != on {
		t.Errorf("event trace perturbed the report:\n  off %s\n  on  %s", off, on)
	}
}

// TestEventTraceDeterministic: the full event content is a function of
// the modelled execution alone, so two runs must render the
// same text timeline and the same Chrome trace, byte for byte.
func TestEventTraceDeterministic(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	cfg.Adaptive = true
	_, _, la := runUMITraced(t, prog, cfg, 0)
	_, _, lb := runUMITraced(t, prog, cfg, 0)
	ta := tracelog.Timeline(la.Events(), la.Drops())
	tb := tracelog.Timeline(lb.Events(), lb.Drops())
	if ta != tb {
		t.Errorf("text timeline differs across identical runs:\n--- a ---\n%s--- b ---\n%s", ta, tb)
	}
	var ba, bb bytes.Buffer
	if err := tracelog.WriteChromeTrace(&ba, la.Events()); err != nil {
		t.Fatal(err)
	}
	if err := tracelog.WriteChromeTrace(&bb, lb.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("Chrome trace differs across identical runs")
	}
}

// TestEventTraceCoversLifecycle checks that a real run emits the full
// lifecycle: promotion, instrumentation, profile fill, analyzer begin/end
// spans, deinstrumentation, and (with Adaptive on) threshold steps.
func TestEventTraceCoversLifecycle(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	cfg.Adaptive = true
	_, _, l := runUMITraced(t, prog, cfg, 0)
	seen := map[tracelog.Type]int{}
	for _, e := range l.Events() {
		seen[e.Type]++
	}
	for _, ty := range []tracelog.Type{
		tracelog.EvTracePromoted, tracelog.EvTraceInstrumented,
		tracelog.EvProfileFill, tracelog.EvAnalyzerBegin,
		tracelog.EvAnalyzerEnd, tracelog.EvTraceDeinstrumented,
		tracelog.EvAdaptiveStep,
	} {
		if seen[ty] == 0 {
			t.Errorf("no %s events in a full run; seen: %v", ty, seen)
		}
	}
	if seen[tracelog.EvAnalyzerBegin] != seen[tracelog.EvAnalyzerEnd] {
		t.Errorf("unbalanced analyzer spans: %d begin, %d end",
			seen[tracelog.EvAnalyzerBegin], seen[tracelog.EvAnalyzerEnd])
	}
	// Every analyzer-end span must carry the simulated-reference count and
	// a monotone-growing delinquent set (the set only accumulates).
	var lastP uint64
	for _, e := range tracelog.Sorted(l.Events()) {
		if e.Type != tracelog.EvAnalyzerEnd {
			continue
		}
		if e.Arg1 == 0 {
			t.Errorf("analyzer.end at cycle %d reports zero refs", e.Cycles)
		}
		if e.Arg3 < lastP {
			t.Errorf("delinquent set shrank: %d -> %d at cycle %d", lastP, e.Arg3, e.Cycles)
		}
		lastP = e.Arg3
	}
}

// TestEventTraceAsyncOverflow runs a whole guest into a tiny ring: the
// ring wraps many times, and the result must still be well-formed, with
// the drops counted exactly.
func TestEventTraceAsyncOverflow(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	_, _, l := runUMITraced(t, prog, testConfig(), 32)
	if l.Cap() != 32 {
		t.Fatalf("Cap() = %d, want 32", l.Cap())
	}
	if l.Total() <= 32 {
		t.Skipf("run emitted only %d events; overflow not exercised", l.Total())
	}
	if l.Drops() != l.Total()-32 {
		t.Errorf("Drops() = %d, want Total-Cap = %d", l.Drops(), l.Total()-32)
	}
	evs := l.Events()
	if len(evs) != 32 {
		t.Fatalf("Events() after overflow returned %d, want 32", len(evs))
	}
	var buf bytes.Buffer
	if err := tracelog.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatalf("Chrome export after overflow: %v", err)
	}
}
