// Package metrics is the runtime's self-observability substrate: a small,
// dependency-free registry of atomic counters, gauges, and fixed-bucket
// histograms. UMI's whole pitch is that introspection is cheap enough to
// leave on in production; this package is how the runtime measures its own
// cost — instrumentation events, analysis latency, replay backlog,
// profile fill and filter rates — continuously, the way PROMPT
// and Examem treat profiler self-accounting as a first-class output.
//
// The hot paths (Counter.Inc, Gauge.Set, Histogram.Observe) are single
// atomic operations and never allocate; allocation happens only at
// registration and snapshot time. All values may be updated and read from
// any goroutine: each metric is individually consistent, a Snapshot is not
// a cross-metric atomic cut (documented per call site where it matters).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (or externally synced) uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value; used to mirror counters owned elsewhere
// (e.g. the rio runtime's fragment-build counts) into the registry at a
// synchronization point.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, backlog) that also tracks
// its high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current level and raises the high-water mark if needed.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add shifts the level by d and returns the new value, raising the
// high-water mark if needed.
func (g *Gauge) Add(d int64) int64 {
	v := g.v.Add(d)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return v
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-bucket distribution of uint64 observations
// (latencies in nanoseconds, sizes in rows). Bucket bounds are upper
// bounds, ascending; observations above the last bound land in an
// implicit overflow bucket.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // initialized to MaxUint64
	max     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	h := &Histogram{
		bounds:  append([]uint64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.MaxUint64)
	return h
}

// Observe records one value. Allocation-free: a binary search over the
// bounds plus four atomic updates.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ExpBuckets returns n upper bounds starting at start and doubling each
// step — the histogram scheme the runtime uses for latencies (1µs, 2µs,
// 4µs, ... when start is 1000).
func ExpBuckets(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	b := start
	for i := 0; i < n; i++ {
		out[i] = b
		b *= 2
	}
	return out
}

// Registry holds named metrics. Registration is idempotent: asking for an
// existing name returns the same metric.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeValue is a gauge's snapshot: current level and high-water mark.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Bucket is one histogram bucket: the count of observations at or below
// the upper bound Le. The overflow bucket carries Le == MaxUint64.
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramValue is a histogram's snapshot.
type HistogramValue struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts, returning the upper bound of the bucket holding that rank (Max
// for the overflow bucket). Returns 0 when the histogram is empty.
func (h HistogramValue) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var acc uint64
	for _, b := range h.Buckets {
		acc += b.Count
		if acc >= rank {
			if b.Le == math.MaxUint64 {
				return h.Max
			}
			return b.Le
		}
	}
	return h.Max
}

// Mean returns the average observation (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every registered metric, marshalable
// with encoding/json and renderable with String.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue     `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value. Each metric is read
// atomically; the set as a whole is not an atomic cut across concurrent
// writers.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]HistogramValue, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Load(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hv := HistogramValue{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
		if min := h.min.Load(); min != math.MaxUint64 {
			hv.Min = min
		}
		hv.Buckets = make([]Bucket, 0, len(h.buckets))
		for i := range h.buckets {
			le := uint64(math.MaxUint64)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hv.Buckets = append(hv.Buckets, Bucket{Le: le, Count: h.buckets[i].Load()})
		}
		s.Histograms[name] = hv
	}
	return s
}

// Counter returns a snapshotted counter value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a snapshotted gauge value (zero value when absent).
func (s Snapshot) Gauge(name string) GaugeValue { return s.Gauges[name] }

// Histogram returns a snapshotted histogram (zero value when absent).
func (s Snapshot) Histogram(name string) HistogramValue { return s.Histograms[name] }

// Diff returns the change from prev to s, the interval view a periodic
// scraper (the /metrics/delta endpoint, a rate display) wants. Counters
// subtract; a counter absent from prev diffs against zero, and a counter
// that went backwards (an externally synced mirror that was re-stored
// lower) clamps to zero rather than wrapping. Gauges are levels, not
// accumulations, so the current value and high-water mark pass through
// unchanged. Histograms subtract count, sum, and per-bucket counts
// (bucket-by-bucket — the bounds are fixed at registration); min and max
// pass through, since the interval's extremes are not recoverable from
// two cumulative snapshots.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]GaugeValue, len(s.Gauges)),
		Histograms: make(map[string]HistogramValue, len(s.Histograms)),
	}
	for name, cur := range s.Counters {
		old := prev.Counters[name]
		if cur < old {
			old = cur
		}
		d.Counters[name] = cur - old
	}
	for name, g := range s.Gauges {
		d.Gauges[name] = g
	}
	for name, cur := range s.Histograms {
		old := prev.Histograms[name]
		hv := HistogramValue{Min: cur.Min, Max: cur.Max}
		if cur.Count >= old.Count {
			hv.Count = cur.Count - old.Count
		}
		if cur.Sum >= old.Sum {
			hv.Sum = cur.Sum - old.Sum
		}
		hv.Buckets = make([]Bucket, 0, len(cur.Buckets))
		for i, b := range cur.Buckets {
			if i < len(old.Buckets) && old.Buckets[i].Le == b.Le && b.Count >= old.Buckets[i].Count {
				b.Count -= old.Buckets[i].Count
			}
			hv.Buckets = append(hv.Buckets, b)
		}
		d.Histograms[name] = hv
	}
	return d
}

// String renders the snapshot as an aligned, name-sorted plain-text block:
// counters first, then gauges (value / high-water mark), then histograms
// (count, mean, p50/p90/p99, max). Deterministic ordering; the values
// themselves (latencies) naturally vary run to run.
func (s Snapshot) String() string {
	var sb strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for n := range s.Gauges {
		if len(n) > width {
			width = len(n)
		}
	}
	for n := range s.Histograms {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-*s  %d\n", width, n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		fmt.Fprintf(&sb, "  %-*s  %d (max %d)\n", width, n, g.Value, g.Max)
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&sb, "  %-*s  n=%d mean=%.0f p50=%d p90=%d p99=%d max=%d\n",
			width, n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
	}
	return sb.String()
}
