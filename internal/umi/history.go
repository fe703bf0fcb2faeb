package umi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"umi/internal/metrics"
)

// Phase-aware profile history. Every other surface in the runtime reports
// cumulative end-of-run state; the paper's premise (§3.3, §5) is that
// memory behaviour evolves and the analyzer runs periodically precisely to
// track it. This file keeps the time axis: after each analyzer invocation
// the owner thread (the guest on the inline path, the sequencer on the
// pipeline path) captures one WindowSummary — the window's miss ratio, the
// delinquent-set membership and its churn against the previous window, the
// stride mix, the working-set size — into a bounded ring.
//
// Everything captured derives from modelled state stamped at profile
// hand-off time, never from wall clocks or queue depths, so inline
// (workers=0) and asynchronous (workers=N) runs record byte-identical
// histories, and recording never feeds back into modelled results:
// history-on and history-off reports are byte-identical by construction.

// WindowSummary is one analyzer invocation's compact record of memory
// behaviour: what this window looked like, and how far it moved from the
// previous one. All fields derive from the modelled execution, so a fixed
// workload produces a byte-identical summary sequence at any worker count.
type WindowSummary struct {
	// Invocation is the 1-based analyzer invocation number.
	Invocation int `json:"invocation"`
	// Cycles is the modelled guest-cycle stamp at profile hand-off — the
	// same clock BeginInvocation sees, identical inline and async.
	Cycles uint64 `json:"cycles"`
	// Refs counts references mini-simulated in this window (warm-up
	// included, matching Analyzer.SimulatedRefs accounting).
	Refs uint64 `json:"refs"`
	// Accesses and Misses count the window's post-warmup traffic.
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
	// WindowMissRatio is Misses/Accesses for this window alone (0, never
	// NaN, when the window saw no post-warmup accesses).
	WindowMissRatio float64 `json:"window_miss_ratio"`
	// CumMissRatio is the analyzer's cumulative miss ratio after this
	// window — the end-of-run Report quantity, tracked over time.
	CumMissRatio float64 `json:"cum_miss_ratio"`

	// Delinquent is |P| after this window; NewDelinquent counts the PCs
	// that entered P during it. DelinquentHash is an FNV-1a hash over the
	// sorted membership, so two windows with equal sizes but different
	// sets are distinguishable without storing the sets.
	Delinquent     int    `json:"delinquent"`
	NewDelinquent  int    `json:"new_delinquent"`
	DelinquentHash uint64 `json:"delinquent_hash"`
	// Jaccard is the delinquent-set similarity |prev∩cur| / |prev∪cur|
	// against the previous window (1 when both are empty; 1 for the first
	// window, which has no baseline).
	Jaccard float64 `json:"jaccard"`

	// PhaseChange flags a detected phase transition: the window miss
	// ratio moved more than Config.PhaseMissDelta from the previous
	// window's, or delinquent-set churn (1 - Jaccard) exceeded
	// Config.PhaseChurnDelta. Never set on the first window.
	PhaseChange bool `json:"phase_change"`

	// StridedLoads counts loads with a discovered dominant stride so far;
	// TopStride is the modal stride among them (0 when none) — the
	// dominant-stride mix in two numbers.
	StridedLoads int   `json:"strided_loads"`
	TopStride    int64 `json:"top_stride"`

	// WSLines is the working-set size in distinct cache lines, read from a
	// registered WorkingSet consumer (0 when none is attached).
	WSLines int `json:"ws_lines"`
}

// historySchema names the exported JSON layout (umiprof -history-out and
// the /history introspection endpoint).
const historySchema = "umi-history/v1"

// DefaultHistoryWindows is the ring depth used when Config.HistoryWindows
// is zero.
const DefaultHistoryWindows = 64

// History is the bounded profile-history ring. Capture runs on the thread
// that owns the analyzer (single writer, in invocation order); snapshots
// are safe from any goroutine at any time, which is what the live HTTP
// introspection surface needs.
type History struct {
	mu     sync.Mutex
	cap    int
	buf    []WindowSummary // ring storage, len == cap once warm
	start  int             // index of the oldest retained window
	n      int             // retained windows
	total  uint64          // windows ever recorded
	phases uint64          // windows flagged PhaseChange, ever

	// Capture state, touched only by the analyzer owner (the pipeline's
	// ownership hand-offs give the necessary happens-before edges).
	missDelta  float64
	churnDelta float64
	prevRefs   uint64
	prevAcc    uint64
	prevMiss   uint64
	prevRatio  float64 // previous window's miss ratio
	prevSet    []uint64
	hasPrev    bool
}

// newHistory builds a ring of the given capacity (0 selects
// DefaultHistoryWindows) with the given phase-detection thresholds.
func newHistory(capacity int, missDelta, churnDelta float64) *History {
	return &History{cap: historyCap(capacity), missDelta: missDelta, churnDelta: churnDelta}
}

// historyCap is the ring cap a Config.HistoryWindows value selects, as a
// stream's history section records it: 0 selects DefaultHistoryWindows,
// and a negative value disables capture (cap 0).
func historyCap(windows int) int {
	if windows == 0 {
		return DefaultHistoryWindows
	}
	return max(windows, 0)
}

// record appends one summary, dropping the oldest window when full.
func (h *History) record(w WindowSummary) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buf) < h.cap {
		h.buf = append(h.buf, w)
		h.n++
	} else {
		h.buf[h.start] = w
		h.start = (h.start + 1) % h.cap
	}
	h.total++
	if w.PhaseChange {
		h.phases++
	}
}

// Windows returns the retained summaries, oldest first.
func (h *History) Windows() []WindowSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WindowSummary, 0, h.n)
	for i := 0; i < h.n; i++ {
		out = append(out, h.buf[(h.start+i)%len(h.buf)])
	}
	return out
}

// lastWindow returns the most recently recorded summary, or false when
// none has been captured yet. Nil-safe: the adaptation state machine
// consults it after every inline invocation, and a history-less run
// (HistoryWindows < 0) simply never adapts.
func (h *History) lastWindow() (WindowSummary, bool) {
	if h == nil {
		return WindowSummary{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return WindowSummary{}, false
	}
	return h.buf[(h.start+h.n-1)%len(h.buf)], true
}

// reset rewinds the ring and the capture baseline to the just-constructed
// state, so an analyzer reused across runs (Analyzer.Reset) records the
// same history a fresh one would. Nil-safe: standalone analyzers built in
// tests run history-less.
func (h *History) reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buf = h.buf[:0]
	h.start, h.n = 0, 0
	h.total, h.phases = 0, 0
	h.mu.Unlock()
	h.prevRefs, h.prevAcc, h.prevMiss = 0, 0, 0
	h.prevRatio = 0
	h.prevSet = h.prevSet[:0]
	h.hasPrev = false
}

// Total returns the number of windows ever recorded.
func (h *History) Total() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// HistoryView is the exported snapshot of the ring: accounting plus the
// retained windows, oldest first. It is the payload of Session.History,
// umiprof -history-out, and the /history introspection endpoint.
type HistoryView struct {
	Schema       string          `json:"schema"`
	Total        uint64          `json:"total"`
	Dropped      uint64          `json:"dropped"`
	Cap          int             `json:"cap"`
	PhaseChanges uint64          `json:"phase_changes"`
	Windows      []WindowSummary `json:"windows"`
}

// View snapshots the ring. Safe from any goroutine; a nil receiver yields
// an empty view (analyzers built standalone in tests run history-less).
func (h *History) View() HistoryView {
	if h == nil {
		return HistoryView{Schema: historySchema, Windows: []WindowSummary{}}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	v := HistoryView{
		Schema:       historySchema,
		Total:        h.total,
		Dropped:      h.total - uint64(h.n),
		Cap:          h.cap,
		PhaseChanges: h.phases,
		Windows:      make([]WindowSummary, 0, h.n),
	}
	for i := 0; i < h.n; i++ {
		v.Windows = append(v.Windows, h.buf[(h.start+i)%len(h.buf)])
	}
	return v
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// hashPCs is FNV-1a over the sorted PC list, 8 little-endian bytes each.
func hashPCs(pcs []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, pc := range pcs {
		for b := 0; b < 8; b++ {
			h ^= (pc >> (8 * b)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// jaccard computes |a∩b| / |a∪b| over two sorted slices; two empty sets
// are defined as identical (1).
func jaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// captureWindow records one WindowSummary for the invocation that just
// completed. It must run on the thread that owns the analyzer, after every
// profile of the invocation has been analyzed and consumed, with the
// modelled cycle stamp the invocation was submitted at — the rule that
// makes inline and asynchronous histories byte-identical.
func (a *Analyzer) captureWindow(cycles uint64, consumers []ProfileConsumer) {
	h := a.hist
	if h == nil {
		return
	}
	// Stage attribution (overhead.go): capture is observational, so its
	// modelled cost is zero by construction; its wall cost is measured
	// here, on whichever thread owns the analyzer for this invocation.
	var start time.Time
	if a.met != nil {
		start = time.Now()
		defer func() {
			ns := uint64(time.Since(start))
			a.met.HistoryWallNs.Add(ns)
			a.met.HistoryLatency.Observe(ns)
		}()
	}
	cur := make([]uint64, 0, len(a.delinquent))
	for pc := range a.delinquent {
		cur = append(cur, pc)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })

	w := WindowSummary{
		Invocation:     a.Invocations,
		Cycles:         cycles,
		Refs:           a.SimulatedRefs - h.prevRefs,
		Accesses:       a.totalAcc - h.prevAcc,
		Misses:         a.totalMiss - h.prevMiss,
		CumMissRatio:   a.MissRatio(),
		Delinquent:     len(cur),
		NewDelinquent:  len(cur) - len(h.prevSet),
		DelinquentHash: hashPCs(cur),
		StridedLoads:   len(a.strides),
		TopStride:      modalStride(a.strides),
	}
	if w.Accesses > 0 {
		w.WindowMissRatio = float64(w.Misses) / float64(w.Accesses)
	}
	w.Jaccard = jaccard(h.prevSet, cur)
	if h.hasPrev {
		drift := w.WindowMissRatio - h.prevRatio
		if drift < 0 {
			drift = -drift
		}
		w.PhaseChange = drift > h.missDelta || 1-w.Jaccard > h.churnDelta
	} else {
		w.Jaccard = 1
	}
	for _, c := range consumers {
		if ws, ok := c.(interface{ DistinctLines() int }); ok {
			w.WSLines = ws.DistinctLines()
			break
		}
	}
	h.record(w)
	h.prevRefs, h.prevAcc, h.prevMiss = a.SimulatedRefs, a.totalAcc, a.totalMiss
	h.prevRatio = w.WindowMissRatio
	h.prevSet = append(h.prevSet[:0], cur...)
	h.hasPrev = true
}

// modalStride returns the most common dominant stride across the
// discovered per-load strides, breaking count ties toward the smaller
// magnitude and then the positive value (outranks), 0 when no strides
// have been discovered.
func modalStride(strides map[uint64]StrideInfo) int64 {
	if len(strides) == 0 {
		return 0
	}
	vals := make([]int64, 0, len(strides))
	for _, si := range strides {
		vals = append(vals, si.Stride)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	best, bestN := int64(0), 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if d, n := vals[i], j-i; outranks(d, n, best, bestN) {
			best, bestN = d, n
		}
		i = j
	}
	return best
}

// FormatHistory renders a window sequence as the CLI's phase-history
// section: one line per analyzer invocation with the window and cumulative
// miss ratios, delinquent-set size and churn, stride mix, working-set
// size, and a *PHASE* marker on detected transitions. Deterministic —
// every column derives from modelled state.
func FormatHistory(windows []WindowSummary) string {
	if len(windows) == 0 {
		return "phase history: no analyzer invocations\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "phase history: %d windows\n", len(windows))
	fmt.Fprintf(&sb, "  %4s  %12s  %9s  %8s  %8s  %5s  %5s  %7s  %7s  %8s\n",
		"inv", "cycles", "refs", "win-miss", "cum-miss", "|P|", "+new", "jaccard", "strided", "ws-lines")
	for _, w := range windows {
		line := fmt.Sprintf("  %4d  %12d  %9d  %8.4f  %8.4f  %5d  %+5d  %7.3f  %7d  %8d",
			w.Invocation, w.Cycles, w.Refs, w.WindowMissRatio, w.CumMissRatio,
			w.Delinquent, w.NewDelinquent, w.Jaccard, w.StridedLoads, w.WSLines)
		if w.PhaseChange {
			line += "  *PHASE*"
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}

// Families renders the view for the Prometheus exposition: running totals
// as counters and the latest window's behaviour as gauges, so a scraper
// polling mid-run sees the current phase without parsing the window list.
func (v HistoryView) Families() []metrics.Family {
	fams := []metrics.Family{
		metrics.Scalar("umi_phase_windows_total", "counter", fmt.Sprint(v.Total)),
		metrics.Scalar("umi_phase_windows_dropped_total", "counter", fmt.Sprint(v.Dropped)),
		metrics.Scalar("umi_phase_changes_total", "counter", fmt.Sprint(v.PhaseChanges)),
	}
	if len(v.Windows) == 0 {
		return fams
	}
	last := v.Windows[len(v.Windows)-1]
	return append(fams,
		metrics.Scalar("umi_phase_window_miss_ratio", "gauge", promFloat(last.WindowMissRatio)),
		metrics.Scalar("umi_phase_cum_miss_ratio", "gauge", promFloat(last.CumMissRatio)),
		metrics.Scalar("umi_phase_delinquent_size", "gauge", fmt.Sprint(last.Delinquent)),
		metrics.Scalar("umi_phase_jaccard", "gauge", promFloat(last.Jaccard)),
		metrics.Scalar("umi_phase_strided_loads", "gauge", fmt.Sprint(last.StridedLoads)),
		metrics.Scalar("umi_phase_ws_lines", "gauge", fmt.Sprint(last.WSLines)),
		metrics.Scalar("umi_phase_last_cycles", "gauge", fmt.Sprint(last.Cycles)))
}

// promFloat renders a float sample value the way Prometheus expects.
func promFloat(f float64) string { return fmt.Sprintf("%g", f) }
