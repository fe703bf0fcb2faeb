package umi

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"umi/internal/cache"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
)

// --- satellite: BeginInvocation must not wrap on non-monotonic clocks ---

func TestBeginInvocationNonMonotonicClock(t *testing.T) {
	cfg := testConfig()
	cfg.FlushCycleGap = 1000
	an := NewAnalyzer(&cfg)
	an.BeginInvocation(10_000)
	// A cycle count below the previous invocation's (e.g. a harness reset
	// reused the analyzer against a rewound clock) used to underflow the
	// uint64 gap and flush on every invocation.
	an.BeginInvocation(500)
	if an.Flushes != 0 {
		t.Errorf("Flushes = %d after backwards clock step, want 0 (underflow wrap)", an.Flushes)
	}
	// The rewound time must become the new base: a genuine gap from there
	// still flushes.
	an.BeginInvocation(5_000)
	if an.Flushes != 1 {
		t.Errorf("Flushes = %d after genuine gap, want 1", an.Flushes)
	}
}

func TestAnalyzerReset(t *testing.T) {
	cfg := testConfig()
	cfg.FlushCycleGap = 1000
	an := NewAnalyzer(&cfg)
	p := NewAddressProfile([]uint64{0x400000}, []bool{true}, 4)
	for i := 0; i < 4; i++ {
		row, _ := p.OpenRow()
		p.Record(row, 0, uint64(0x1000+4096*i))
	}
	an.BeginInvocation(100)
	an.AnalyzeProfile(p, 0.5)
	if an.SimulatedRefs == 0 || len(an.OpStats()) == 0 {
		t.Fatal("analysis recorded nothing; test setup broken")
	}
	an.Reset()
	if an.Invocations != 0 || an.SimulatedRefs != 0 || an.Flushes != 0 ||
		len(an.OpStats()) != 0 || len(an.Delinquent()) != 0 || len(an.Strides()) != 0 ||
		an.MissRatio() != 0 {
		t.Errorf("Reset left state behind: %v", an)
	}
	// The first invocation after Reset must never flush, whatever the
	// clock says — the reset rewound the invocation history.
	an.BeginInvocation(1)
	if an.Flushes != 0 {
		t.Errorf("Flushes = %d on first post-Reset invocation, want 0", an.Flushes)
	}
}

// --- satellite: MissRatio must be 0, never NaN, with zero accesses ---

func TestMissRatioZeroWhenProfileShorterThanWarmup(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupRows = 2
	an := NewAnalyzer(&cfg)
	// One recorded row with WarmupRows=2: every row is warm-up, so zero
	// post-warmup accesses reach the accounting.
	p := NewAddressProfile([]uint64{0x400000}, []bool{true}, 4)
	row, _ := p.OpenRow()
	p.Record(row, 0, 0x1000)
	an.BeginInvocation(0)
	an.AnalyzeProfile(p, 0.9)
	if r := an.MissRatio(); r != 0 || math.IsNaN(r) {
		t.Errorf("Analyzer.MissRatio() = %v with 0 accesses, want 0", r)
	}
	st := an.OpStats()[0x400000]
	if st == nil {
		t.Fatal("no OpStat recorded for the profiled op")
	}
	if st.Accesses != 0 {
		t.Fatalf("Accesses = %d, want 0 (all rows are warm-up)", st.Accesses)
	}
	if r := st.MissRatio(); r != 0 || math.IsNaN(r) {
		t.Errorf("OpStat.MissRatio() = %v with 0 accesses, want 0", r)
	}
}

// --- satellite: adaptive threshold stepping is clamped to [Min, Init] ---

func TestClampAlpha(t *testing.T) {
	cfg := Config{DelinquencyInit: 0.90, DelinquencyStep: 0.10, DelinquencyMin: 0.10}
	cases := []struct {
		name  string
		alpha float64
		want  float64
	}{
		{"in range", 0.50, 0.50},
		{"at floor", 0.10, 0.10},
		{"one step below floor", 0.10 - 0.10, 0.10},
		{"far below floor", -3.7, 0.10},
		{"at ceiling", 0.90, 0.90},
		{"above ceiling", 1.10, 0.90},
		{"far above ceiling", 42, 0.90},
	}
	for _, tc := range cases {
		if got := cfg.clampAlpha(tc.alpha); got != tc.want {
			t.Errorf("%s: clampAlpha(%v) = %v, want %v", tc.name, tc.alpha, got, tc.want)
		}
	}
	// A degenerate config with Min above Init clamps to Min.
	bad := Config{DelinquencyInit: 0.05, DelinquencyMin: 0.10}
	if got := bad.clampAlpha(0.5); got != 0.10 {
		t.Errorf("Min>Init: clampAlpha(0.5) = %v, want 0.10", got)
	}
}

func TestAdaptiveAlphaNeverLeavesWindow(t *testing.T) {
	// Many invocations on a hot trace: repeated stepping must never push
	// alpha outside [Min, Init] — including with a negative step, which
	// walks alpha upward.
	for _, step := range []float64{0.10, -0.10} {
		p := strideWorkload(t, 500_000)
		cfg := testConfig()
		cfg.Adaptive = true
		cfg.DelinquencyStep = step
		s, _ := runUMI(t, p, cfg)
		for _, ts := range s.traces {
			if ts.alpha < cfg.DelinquencyMin-1e-12 || ts.alpha > cfg.DelinquencyInit+1e-12 {
				t.Errorf("step %v: trace alpha %v outside [%v, %v]",
					step, ts.alpha, cfg.DelinquencyMin, cfg.DelinquencyInit)
			}
		}
	}
}

// --- profile double-buffering primitives ---

func TestProfileRecordedCount(t *testing.T) {
	p := NewAddressProfile([]uint64{0x10, 0x20}, []bool{true, true}, 4)
	if p.Recorded() != 0 {
		t.Fatalf("fresh profile Recorded() = %d", p.Recorded())
	}
	r0, _ := p.OpenRow()
	p.Record(r0, 0, 0x1000)
	p.Record(r0, 1, 0x2000)
	r1, _ := p.OpenRow()
	p.Record(r1, 0, 0x3000)
	p.Record(r1, 0, 0x4000) // overwrite: still one cell
	if p.Recorded() != 3 {
		t.Errorf("Recorded() = %d, want 3", p.Recorded())
	}
	p.Reset()
	if p.Recorded() != 0 {
		t.Errorf("Recorded() = %d after Reset, want 0", p.Recorded())
	}
}

func TestProfileReinit(t *testing.T) {
	p := NewAddressProfile([]uint64{0x10, 0x20, 0x30}, []bool{true, true, false}, 8)
	r0, _ := p.OpenRow()
	p.Record(r0, 0, 0x1000)
	p.Reinit([]uint64{0x40}, []bool{true}, 4)
	if len(p.Ops) != 1 || p.Ops[0] != 0x40 || p.rowCap != 4 {
		t.Fatalf("Reinit geometry wrong: %v", p)
	}
	if p.Rows() != 0 || p.Recorded() != 0 {
		t.Fatalf("Reinit kept rows: %v (recorded %d)", p, p.Recorded())
	}
	for r := 0; r < 4; r++ {
		if a, ok := p.At(r, 0); ok {
			t.Fatalf("stale cell %#x at row %d after Reinit", a, r)
		}
		p.OpenRow()
	}
	// Growing past the recycled capacity must also work.
	p.Reinit([]uint64{0x50, 0x60, 0x70, 0x80}, []bool{true, true, true, true}, 16)
	if got := len(p.cells); got != 64 {
		t.Fatalf("Reinit grew cells to %d, want 64", got)
	}
}

// --- pipeline determinism and lifecycle ---

// systemKey serializes a System's full report deterministically.
func systemKey(s *System, rt interface{ TotalCycles() uint64 }) string {
	r := s.Report()
	type opKey struct{ PC, A, M uint64 }
	var ops []opKey
	for pc, st := range r.OpStats {
		ops = append(ops, opKey{pc, st.Accesses, st.Misses})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].PC < ops[j].PC })
	var dels []uint64
	for pc := range r.Delinquent {
		dels = append(dels, pc)
	}
	sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
	var strides []string
	for pc, si := range r.Strides {
		strides = append(strides, fmt.Sprintf("%x:%d:%.4f", pc, si.Stride, si.Confidence))
	}
	sort.Strings(strides)
	return fmt.Sprintf("del=%v miss=%v refs=%d flush=%d inv=%d prof=%d instr=%d cyc=%d ops=%v strides=%v",
		dels, r.SimMissRatio, r.SimulatedRefs, r.Flushes, r.AnalyzerInvocations,
		r.ProfilesCollected, r.InstrumentEvents, rt.TotalCycles(), ops, strides)
}

func workerKey(t *testing.T, prog *program.Program, cfg Config, workers int) string {
	t.Helper()
	cfg.AnalyzerWorkers = workers
	s, rt := runUMI(t, prog, cfg)
	return systemKey(s, rt)
}

// TestPipelineDeterminism is the pool's core contract on a multi-trace
// workload: every worker count produces the report the inline analyzer
// produces, down to the modelled cycle totals.
func TestPipelineDeterminism(t *testing.T) {
	progs := map[string]*program.Program{
		"manyloops": manyLoopsWorkload(t, 8, 30_000),
		"stride":    strideWorkload(t, 400_000),
	}
	for name, prog := range progs {
		cfg := testConfig()
		want := workerKey(t, prog, cfg, 0) // pre-pipeline serial path
		for _, workers := range []int{1, 2, 4, 8} {
			if got := workerKey(t, prog, cfg, workers); got != want {
				t.Errorf("%s: workers=%d differs from serial:\n  got  %s\n  want %s",
					name, workers, got, want)
			}
		}
	}
}

// TestSequencerMatchesInline: a session at any AnalyzerWorkers value from
// 2 up runs its invocations through the one sequencer and produces the
// report the inline analyzer produces, down to the modelled cycle totals.
func TestSequencerMatchesInline(t *testing.T) {
	progs := map[string]func() *program.Program{
		"stride":    func() *program.Program { return strideWorkload(t, 400_000) },
		"manyloops": func() *program.Program { return manyLoopsWorkload(t, 8, 30_000) },
	}
	for name, build := range progs {
		want := workerKey(t, build(), testConfig(), 0)
		for _, workers := range []int{2, 4, 64} {
			cfg := testConfig()
			cfg.AnalyzerWorkers = workers
			s, rt := runUMI(t, build(), cfg)
			if s.met.Submits.Load() == 0 {
				t.Errorf("%s: workers=%d: no invocation went through the sequencer", name, workers)
			}
			if got := systemKey(s, rt); got != want {
				t.Errorf("%s: workers=%d differs from inline:\n  got  %s\n  want %s",
					name, workers, got, want)
			}
		}
	}
}

// sessionProg varies the guest per session slot so concurrent sessions
// run heterogeneous profile shapes.
func sessionProg(t *testing.T, i int) *program.Program {
	t.Helper()
	if i%2 == 0 {
		return strideWorkload(t, 200_000+int64(i)*10_000)
	}
	return manyLoopsWorkload(t, 4+i%4, 20_000)
}

// TestConcurrentSessionsMatchInline runs eight Systems at once, each with
// its own sequencer, at several AnalyzerWorkers values, and holds each to
// its inline run: every value from 2 up selects the same one-sequencer
// pipeline, and sessions sharing a process share no analyzer state. Under
// -race (make check) it is the pipeline's data-race net.
func TestConcurrentSessionsMatchInline(t *testing.T) {
	const sessions = 8
	want := make([]string, sessions)
	for i := range want {
		want[i] = workerKey(t, sessionProg(t, i), testConfig(), 0)
	}
	for _, workers := range []int{2, 4, 64} {
		got := make([]string, sessions)
		submits := make([]uint64, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			cfg := testConfig()
			cfg.AnalyzerWorkers = workers
			rt := rio.NewRuntime(vm.New(sessionProg(t, i), cache.NewP4(false)))
			s := Attach(rt, cfg)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := rt.Run(50_000_000); err != nil {
					t.Errorf("workers=%d session %d: Run: %v", workers, i, err)
					return
				}
				s.Finish()
				got[i] = systemKey(s, rt)
				submits[i] = s.met.Submits.Load()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if submits[i] == 0 {
				t.Errorf("workers=%d session %d: no invocation went through the sequencer", workers, i)
			}
			if got[i] != want[i] {
				t.Errorf("workers=%d session %d differs from its inline run:\n  got  %s\n  want %s",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestFormatMetricsQueuePressure: the CLI's metrics section leads with
// the derived headline lines, and its queue-pressure line reads the
// sequencer backlog and the recycle queue.
func TestFormatMetricsQueuePressure(t *testing.T) {
	cfg := testConfig()
	cfg.AnalyzerWorkers = 2
	s, _ := runUMI(t, manyLoopsWorkload(t, 8, 30_000), cfg)
	snap := s.MetricsSnapshot()
	out := FormatMetrics(snap)
	backlog := snap.Gauge("umi.pool.seq_backlog")
	recycle := snap.Gauge("umi.pool.recycle_queue")
	for _, want := range []string{
		"filter rate:",
		"analysis latency:",
		fmt.Sprintf("queue pressure:   sequencer %d (max %d), recycle %d (max %d)\n",
			backlog.Value, backlog.Max, recycle.Value, recycle.Max),
		"umi.pool.seq_backlog",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatMetrics lacks %q:\n%s", want, out)
		}
	}
	if rate, ok := FilterRate(snap); !ok || rate < 0 || rate > 1 {
		t.Errorf("FilterRate = %v, %v", rate, ok)
	}
}

// TestPipelineSyncFallback: OnAnalyzed needs analyzer state at the
// deinstrument boundary, so AnalyzerWorkers must silently degrade to the
// inline path — same results, hook still invoked.
func TestPipelineSyncFallback(t *testing.T) {
	prog := strideWorkload(t, 400_000)
	cfg := testConfig()
	cfg.AnalyzerWorkers = 4

	m := vm.New(prog, cache.NewP4(false))
	rt := rio.NewRuntime(m)
	s := Attach(rt, cfg)
	hookRuns := 0
	s.OnAnalyzed = func(clean *rio.Fragment, an *Analyzer) *rio.Fragment {
		hookRuns++
		if an.Invocations == 0 {
			t.Error("OnAnalyzed saw an analyzer that has not run")
		}
		return nil
	}
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	if hookRuns == 0 {
		t.Fatal("OnAnalyzed never ran")
	}
	if s.pool != nil {
		t.Error("pipeline started despite a synchronous OnAnalyzed hook")
	}
}

// TestPipelineRecyclesBuffers: with the pipeline on, analyzed profile
// buffers flow back through the System's recycle queue instead of being
// re-allocated every instrumentation, and Finish stops the pipeline.
func TestPipelineRecyclesBuffers(t *testing.T) {
	prog := strideWorkload(t, 600_000)
	cfg := testConfig()
	cfg.AnalyzerWorkers = 2
	s, _ := runUMI(t, prog, cfg)
	rep := s.Report()
	if rep.ProfilesCollected < 2 {
		t.Skipf("only %d profiles collected; nothing to recycle", rep.ProfilesCollected)
	}
	if hits := s.MetricsSnapshot().Counter("umi.pool.recycle_hits"); hits == 0 {
		t.Errorf("no instrumentation reused a recycled buffer over %d profiles", rep.ProfilesCollected)
	}
	if s.pool != nil {
		t.Error("Finish did not stop the pipeline")
	}
	if !s.poolClosed {
		t.Error("poolClosed not latched after Finish")
	}
}

// TestMiniSimHoldsNoColdLane: the analyzer's mini-simulator never installs
// a prefetch, so after a whole run's replays it still holds no prefetch
// cold lane — the cache allocates that lane on the first prefetch only.
func TestMiniSimHoldsNoColdLane(t *testing.T) {
	s, _ := runUMI(t, strideWorkload(t, 400_000), testConfig())
	if s.Report().SimulatedRefs == 0 {
		t.Fatal("the analyzer replayed nothing")
	}
	if !reflect.ValueOf(s.an.cache).Elem().FieldByName("cold").IsNil() {
		t.Error("the mini-simulator allocated a prefetch cold lane")
	}
}
