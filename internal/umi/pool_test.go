package umi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"umi/internal/cache"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
	"umi/internal/wire"
)

// --- satellite: BeginInvocation must not wrap on non-monotonic clocks ---

func TestBeginInvocationNonMonotonicClock(t *testing.T) {
	cfg := testConfig()
	cfg.FlushCycleGap = 1000
	an := NewAnalyzer(&cfg)
	an.BeginInvocation(10_000)
	// A cycle count below the previous invocation's (e.g. a Replay fed a
	// further shard, whose clock starts over) used to underflow the
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

// --- profile buffer primitives ---

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

// --- placement: a System analyzes inline, a Replay on its sequencer ---

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

// runKey runs prog under UMI and returns its systemKey.
func runKey(t *testing.T, prog *program.Program, cfg Config) string {
	t.Helper()
	s, rt := runUMI(t, prog, cfg)
	return systemKey(s, rt)
}

// TestSequencerMatchesInline: a Replay at AnalyzerWorkers 0 (the value
// ConfigFromWireHeader leaves) hands every recorded invocation to its
// sequencer, and the report it assembles equals the capture's, which the
// System analyzed inline.
func TestSequencerMatchesInline(t *testing.T) {
	progs := map[string]*program.Program{
		"stride":    strideWorkload(t, 400_000),
		"manyloops": manyLoopsWorkload(t, 8, 30_000),
	}
	for name, prog := range progs {
		sys, _, stream := emitUMI(t, prog, testConfig())
		rep, r := replayStream(t, stream, 0)
		if submits := r.Metrics().Snapshot().Counter("umi.pool.submits"); submits != uint64(rep.AnalyzerInvocations) {
			t.Errorf("%s: %d of %d invocations went through the sequencer",
				name, submits, rep.AnalyzerInvocations)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(sys.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed report differs from the capture's:\n got  %s\n want %s", name, got, want)
		}
	}
}

// TestReplayConsumeJoinsSequencer: a Replay built as the whole-run
// benchmark builds one, at AnalyzerWorkers 2, leaves no goroutine behind
// once Consume returns — there is no Close to forget. The sequencer
// closes done in a defer, so the runtime may still count it for a moment
// after Consume returns; the test waits up to five seconds for the count
// to fall back, which a sequencer Consume does not stop never lets it do.
func TestReplayConsumeJoinsSequencer(t *testing.T) {
	_, _, stream := emitUMI(t, strideWorkload(t, 300_000), testConfig())
	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	cfg, err := ConfigFromWireHeader(h)
	if err != nil {
		t.Fatalf("ConfigFromWireHeader: %v", err)
	}
	cfg.AnalyzerWorkers = 2
	base := runtime.NumGoroutine()
	r := NewReplay(cfg)
	if _, err := r.Consume(dec); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Consume returned, %d before NewReplay", n, base)
		}
		time.Sleep(time.Millisecond)
	}
	if r.Report().AnalyzerInvocations == 0 {
		t.Error("the replay analyzed nothing")
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

// TestConcurrentSessionsMatchInline runs eight Systems at once, each at
// AnalyzerWorkers 4, and holds each to its solo run: a System analyzes on
// its own guest goroutine whatever the field says, so none submits to a
// sequencer, and sessions sharing a process share no analyzer state.
// Under -race (make check) it is the data-race net for co-resident
// sessions.
func TestConcurrentSessionsMatchInline(t *testing.T) {
	const sessions = 8
	want := make([]string, sessions)
	for i := range want {
		want[i] = runKey(t, sessionProg(t, i), testConfig())
	}
	got := make([]string, sessions)
	submits := make([]uint64, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		cfg := testConfig()
		cfg.AnalyzerWorkers = 4
		rt := rio.NewRuntime(vm.New(sessionProg(t, i), cache.NewP4(false)))
		s := Attach(rt, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := rt.Run(50_000_000); err != nil {
				t.Errorf("session %d: Run: %v", i, err)
				return
			}
			s.Finish()
			got[i] = systemKey(s, rt)
			submits[i] = s.met.Submits.Load()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if submits[i] != 0 {
			t.Errorf("session %d: %d invocations went through a sequencer", i, submits[i])
		}
		if got[i] != want[i] {
			t.Errorf("session %d differs from its solo run:\n  got  %s\n  want %s", i, got[i], want[i])
		}
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
