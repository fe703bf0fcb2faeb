package tracelog

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// --- ring semantics ---

func TestRingOverflowDropsOldestFirst(t *testing.T) {
	l := NewLog(4)
	for i := 1; i <= 10; i++ {
		l.Emit(Event{Type: EvTracePromoted, Cycles: uint64(i * 100)})
	}
	if got := l.Total(); got != 10 {
		t.Errorf("Total() = %d, want 10", got)
	}
	if got := l.Drops(); got != 6 {
		t.Errorf("Drops() = %d, want 6 (oldest six overwritten)", got)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantCycles := uint64((7 + i) * 100)
		if e.Cycles != wantCycles {
			t.Errorf("event %d: cycles %d, want %d (survivors must be the newest, oldest-first)",
				i, e.Cycles, wantCycles)
		}
		if i > 0 && evs[i-1].Seq >= e.Seq {
			t.Errorf("Events() not in ascending Seq order at %d", i)
		}
	}
}

func TestNoDropsBelowCapacity(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 8; i++ {
		l.Emit(Event{Type: EvTraceInstrumented})
	}
	if l.Drops() != 0 {
		t.Errorf("Drops() = %d with ring exactly full, want 0", l.Drops())
	}
	l.Emit(Event{Type: EvTraceInstrumented})
	if l.Drops() != 1 {
		t.Errorf("Drops() = %d after one overflow, want 1", l.Drops())
	}
}

func TestRecent(t *testing.T) {
	l := NewLog(16)
	for i := 1; i <= 5; i++ {
		l.Emit(Event{Cycles: uint64(i)})
	}
	got := l.Recent(2)
	if len(got) != 2 || got[0].Cycles != 4 || got[1].Cycles != 5 {
		t.Errorf("Recent(2) = %v, want cycles [4 5]", got)
	}
	if n := len(l.Recent(0)); n != 5 {
		t.Errorf("Recent(0) returned %d events, want all 5", n)
	}
	if n := len(l.Recent(100)); n != 5 {
		t.Errorf("Recent(100) returned %d events, want 5", n)
	}
}

// A nil Log is the disabled state: every method must be a cheap no-op so
// call sites emit unconditionally.
func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Type: EvAnalyzerEnd})
	if l.Total() != 0 || l.Drops() != 0 || l.Cap() != 0 {
		t.Error("nil Log reported nonzero state")
	}
	if evs := l.Events(); evs != nil {
		t.Errorf("nil Log Events() = %v, want nil", evs)
	}
	if evs := l.Recent(3); evs != nil {
		t.Errorf("nil Log Recent() = %v, want nil", evs)
	}
}

// TestConcurrentEmitAndSnapshot exercises the lock-free append path from
// several producers racing a snapshotting reader — the -race backstop for
// the guest-thread/sequencer/HTTP-handler triangle.
func TestConcurrentEmitAndSnapshot(t *testing.T) {
	l := NewLog(64)
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				l.Emit(Event{Type: Type(uint8(p) % uint8(numTypes)), Cycles: uint64(i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range l.Events() {
				if int(e.Type) >= int(numTypes) {
					t.Errorf("torn event read: type %d", e.Type)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := l.Total(); got != producers*perProducer {
		t.Errorf("Total() = %d, want %d", got, producers*perProducer)
	}
	if got := l.Drops(); got != producers*perProducer-64 {
		t.Errorf("Drops() = %d, want %d", got, producers*perProducer-64)
	}
}

// --- deterministic renderers ---

// fixedEvents is a synthetic lifecycle covering every event type, used by
// the golden and schema tests. Seq/WallNs are left to Emit on purpose:
// the deterministic renderers must ignore them.
func fixedEvents() ([]Event, uint64) {
	l := NewLog(64)
	l.Emit(Event{Type: EvTracePromoted, Cycles: 1_000, TracePC: 0x400, Arg1: 12})
	l.Emit(Event{Type: EvTraceInstrumented, Cycles: 1_500, TracePC: 0x400, Arg1: 3})
	l.Emit(Event{Type: EvPipelineRecycle, Cycles: 1_500, TracePC: 0x400, Arg1: 256})
	l.Emit(Event{Type: EvProfileFill, Cycles: 9_000, TracePC: 0x400, Arg1: 256, Arg2: 0})
	l.Emit(Event{Type: EvAnalyzerBegin, Cycles: 9_000, Arg1: 1})
	l.Emit(Event{Type: EvCacheFlush, Cycles: 9_000})
	l.Emit(Event{Type: EvPipelineSubmit, Cycles: 9_000, Arg1: 1, Arg2: 0})
	l.Emit(Event{Type: EvTraceDeinstrumented, Cycles: 9_000, TracePC: 0x400})
	l.Emit(Event{Type: EvAdaptiveStep, Cycles: 9_000, TracePC: 0x400,
		Arg1: math.Float64bits(0.80)})
	l.Emit(Event{Type: EvAnalyzerEnd, Cycles: 9_000, Dur: 2_168,
		Arg1: 768, Arg2: 91, Arg3: 2})
	l.Emit(Event{Type: EvBlockCacheFlush, Cycles: 20_000, Arg1: 4096})
	return l.Events(), l.Drops()
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with `go test ./internal/tracelog -update`): %v",
			path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from its golden file\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTimeline(t *testing.T) {
	evs, drops := fixedEvents()
	golden(t, "timeline", Timeline(evs, drops))
}

func TestTimelineReportsDrops(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: EvTracePromoted, Cycles: uint64(i)})
	}
	out := Timeline(l.Events(), l.Drops())
	if want := "timeline: 2 events (3 older events dropped)\n"; out[:len(want)] != want {
		t.Errorf("Timeline header = %q, want prefix %q", out, want)
	}
}

// TestTimelineIgnoresWallClock pins the determinism contract: two logs
// with identical modelled content but different wall-clock annotations
// and append orders must render identically.
func TestTimelineIgnoresWallClock(t *testing.T) {
	evs, drops := fixedEvents()
	a := Timeline(evs, drops)
	reversed := make([]Event, len(evs))
	for i, e := range evs {
		e.WallNs += 1_000_000 // perturb the non-deterministic field
		e.Seq += 50
		reversed[len(evs)-1-i] = e
	}
	if b := Timeline(reversed, drops); a != b {
		t.Errorf("Timeline depends on Seq/WallNs/append order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
