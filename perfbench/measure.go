package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umi/internal/cache"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// seconds converts the -seconds flag to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// parallel runs fn(0..n-1) on two goroutines, the core count the benchmark
// is sized for, and returns the joined errors.
func parallel(n int, fn func(int) error) error {
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// The host this benchmark was built on changes speed under it: its vCPUs
// run about 1.5× faster or slower for seconds at a time. A guest run on
// one core follows that closely, so profile's timings are expressed at a
// reference host speed: each run's time is scaled by the speed of a fixed
// calibration loop read just before and just after it. The measured
// values are printed beside them. No reading of the loop, on one core or
// on both, follows the two-client workloads (METRICS.md), so they stay as
// measured.

// refSpeed is the calibration loop's rate, in M ops/s, that scaled
// timings are expressed at.
const refSpeed = 100.0

// calibration is how long one speed reading runs.
const calibration = 20 * time.Millisecond

var calibrationSink uint64

// hostSpeed runs the calibration loop — a switch over a small bytecode
// driving registers and a map, the shape of the guest VM's work, in code
// outside the packages it measures — and returns its rate in M ops/s.
func hostSpeed() float64 {
	regs := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	mem := make(map[uint64]uint64, 1024)
	code := [16]uint8{0, 1, 2, 3, 4, 5, 6, 7, 2, 4, 1, 0, 3, 5, 7, 6}
	t0 := time.Now()
	n := 0
	for time.Since(t0) < calibration {
		for i := 0; i < 10000; i++ {
			op := code[i&15]
			a, b := regs[op&7], regs[(op+3)&7]
			switch op & 3 {
			case 0:
				regs[op&7] = a + b
			case 1:
				regs[op&7] = a ^ b<<1
			case 2:
				mem[a&1023] = b
			case 3:
				regs[op&7] += mem[b&1023]
			}
		}
		n += 10000
	}
	calibrationSink += regs[0]
	return float64(n) / time.Since(t0).Seconds() / 1e6
}

// refClock scales measured intervals to the reference host speed.
// Consecutive intervals share the speed reading between them.
type refClock struct {
	last, sum float64 // the latest reading, and all of them summed
	n         int
}

func newRefClock() *refClock {
	c := &refClock{}
	c.read()
	return c
}

func (c *refClock) read() float64 {
	// Collect first, so no GC work left over from the run before competes
	// with the loop; the next run then starts from a collected heap.
	runtime.GC()
	c.last = hostSpeed()
	c.sum += c.last
	c.n++
	return c.last
}

// scale reads the host speed and returns d, the interval since the
// previous reading, at the reference speed.
func (c *refClock) scale(d time.Duration) time.Duration {
	before := c.last
	return time.Duration(float64(d) * (before + c.read()) / 2 / refSpeed)
}

// speed is the mean host speed the clock read.
func (c *refClock) speed() float64 { return c.sum / float64(c.n) }

// ms converts durations, the unit every latency
// sample is kept in.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rng derives an independent deterministic stream from the run seed; every
// input the benchmark makes comes from one of these.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling back
// to the Go runtime's memory obtained from the OS where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// resetPeakRSS returns the collected heap to the OS and restarts the
// kernel's peak-RSS mark (VmHWM) from the current resident set, so
// peakRSSMB covers what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// goSample is a runtime/metrics reading; deltas of two readings around a
// phase give its allocation volume and GC CPU share.
type goSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func (g goSample) sub(o goSample) goSample {
	return goSample{g.allocBytes - o.allocBytes, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU}
}

func (g goSample) add(o goSample) goSample {
	return goSample{g.allocBytes + o.allocBytes, g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU}
}

// settledGoroutines waits for the goroutine count to stop falling (closed
// connections' goroutines exit asynchronously) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// countingModel is the traced ladder's memory model: the hierarchy, with
// its data accesses counted and nothing timed (a clock per access would
// cost more than the access). It implements each optional interface the
// hierarchy does, so the VM drives it exactly as it drives the bare
// hierarchy.
type countingModel struct {
	h        *cache.Hierarchy
	accesses uint64
}

func (c *countingModel) Access(addr uint64, size uint8, write bool) uint64 {
	c.accesses++
	return c.h.Access(addr, size, write)
}

func (c *countingModel) AccessNT(addr uint64, size uint8, write bool) uint64 {
	c.accesses++
	return c.h.AccessNT(addr, size, write)
}

func (c *countingModel) FetchInstr(pc uint64) uint64 { return c.h.FetchInstr(pc) }

func (c *countingModel) Prefetch(addr uint64) { c.h.Prefetch(addr) }

// span is one timed interval of a traced run. Spans of one operation share
// Op; Parent names the span that caused this one (0 for an operation's
// root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory; the run writes them out when
// it ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// newOp allocates an operation id.
func (t *tracer) newOp() uint64 { return t.ids.Add(1) }

// start opens a span; finish closes and records it.
func (t *tracer) start(op, parent uint64, name string) span {
	return span{Op: op, ID: t.ids.Add(1), Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()}
}

func (t *tracer) finish(s span) span {
	s.End = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// waits returns, for every client request span with a handler child, the
// part of the client span the handler did not cover: transport, server
// framework and client time.
func (t *tracer) waits() []float64 {
	spans := t.snapshot()
	handler := make(map[uint64]time.Duration)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "handler.") {
			handler[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && strings.HasPrefix(s.Name, "client.") {
			out = append(out, ms(s.dur()-h))
		}
	}
	return out
}

// write stores the spans as JSON under dir; a traced run calls it once, at
// its end.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.snapshot()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// reportFailure prints the first few failed operations.
func reportFailure(out io.Writer, n int, what string, err error) {
	if n <= 3 {
		fmt.Fprintf(out, "failed op %s: %v\n", what, err)
	}
}

// writeSpans writes a traced run's spans when the run ends.
func writeSpans(cfg config, tr *tracer, out io.Writer) error {
	path, err := tr.write(cfg.spanDir, cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans %s\n", path)
	return nil
}
