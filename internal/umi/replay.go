package umi

import (
	"errors"
	"fmt"
	"io"
	"time"

	"umi/internal/cache"
	"umi/internal/wire"
)

// ErrResume classifies ConsumeResume failures that happen before anything
// was applied — a re-sent stream whose bytes disagree with the session's
// recorded resume point, or one too short to reach it. The caller can
// safely keep waiting for a correct retry.
var ErrResume = errors.New("resume mismatch")

// Replay drives an Analyzer from a recorded umi-profile stream (v1 or
// v2) instead of a live guest: the receiving half of
// capture-once/analyze-many. Each recorded invocation runs the invocation
// body the System runs (Analyzer.invoke), with the recorded hand-off cycle
// stamp and profiles in recorded order, so a report assembled from a
// replay is byte-identical to the capture process's report. A replay has
// no guest to stall, so each Consume decodes on the caller's goroutine
// while a sequencer goroutine (pool.go) analyzes; the sequencer is joined
// before Consume returns.
//
// A Replay outlives a single stream. Feeding it several shards in
// sequence continues the analysis: the logical cache, delinquent set and
// strides carry across shards exactly as they carry across invocations.
// It also merges what each cleanly consumed shard carried besides
// analyzer input: trailer counts sum, PC sets union, and the streamed
// histories concatenate and compact to the capture cap. That is the
// daemon's multi-shard ingest merge.
type Replay struct {
	cfg Config
	an  *Analyzer
	met *Metrics

	// OnFrame, when set, observes the wall-clock latency of each stream
	// record Consume processed (decode plus hand-off to the sequencer) —
	// the ingest path's per-frame latency histogram feed. Purely
	// observational.
	OnFrame func(time.Duration)

	profiledPCs map[uint64]bool
	profiles    int

	// Run accounting merged from the trailers of cleanly consumed shards:
	// sum holds the summed counts (no PC sets, no manifest). A shard that
	// fails mid-stream merges none of this, so a resumed upload counts
	// its trailer and history once.
	sum          wire.Trailer
	candidatePCs map[uint64]bool
	tracePCs     map[uint64]bool

	// The capture side's streamed phase history, merged. Streamed rather
	// than recomputed: capture-side consumers feed fields (WSLines) a
	// replay cannot rebuild. histCap stays 0 until a shard carries a
	// history section.
	windows    []WindowSummary
	histTotal  uint64
	histPhases uint64
	histCap    int

	// Last safe resume point: the decoder's frame count and rolling
	// checksum immediately after the most recently applied invocation.
	// Safe points land only on invocation boundaries — resuming anywhere
	// else would split an invocation's profile group across uploads.
	safeFrames uint64
	safeChk    uint64
}

// NewReplay builds a replayer for a stream-derived config
// (ConfigFromWireHeader). It starts no goroutine.
func NewReplay(cfg Config) *Replay {
	r := &Replay{
		cfg:          cfg,
		met:          newMetrics(),
		profiledPCs:  make(map[uint64]bool),
		candidatePCs: make(map[uint64]bool),
		tracePCs:     make(map[uint64]bool),
	}
	r.an = NewAnalyzer(&r.cfg)
	r.an.met = r.met
	return r
}

// invocation hands one recorded invocation to the sequencer, with the
// ownership of profs and alphas.
func (r *Replay) invocation(seq *sequencer, cycles uint64, profs []*AddressProfile, alphas []float64) {
	for _, p := range profs {
		for _, pc := range p.Ops {
			r.profiledPCs[pc] = true
		}
	}
	r.profiles += len(profs)
	seq.submit(newInvocation(&r.cfg, cycles, profs, alphas))
}

// Consume replays one stream (after its header has been read and
// validated by the caller) into the analyzer and, once the stream ends
// cleanly, merges its trailer and history; it returns the shard's
// manifest (zero for a v1 stream). Every invocation it applied is
// analyzed, and its sequencer stopped, by the time it returns, on
// success and error alike. On a decode error the analyzer keeps
// whatever invocations were applied before the bad frame and nothing is
// merged — the caller decides whether a partially-applied shard poisons
// the session (Progress reports how far the applied prefix reached). A
// history section whose cap disagrees with the one the header's
// HistoryWindows implies is malformed. The replayer stays usable for
// further shards after a clean consume.
func (r *Replay) Consume(dec *wire.Decoder) (wire.Manifest, error) {
	return r.consume(dec, 0, 0)
}

// Progress reports the last safe resume point: the stream frame count
// (header included) and rolling content checksum right after the most
// recently applied invocation. A client that re-sends the stream from the
// beginning can hand these to ConsumeResume to skip what was already
// applied. Zero frames means nothing has been applied yet.
func (r *Replay) Progress() (frames, checksum uint64) {
	return r.safeFrames, r.safeChk
}

// ConsumeResume is Consume for a re-sent stream: it decodes (and checks)
// the first skipFrames frames without applying them, verifies the rolling
// checksum at the resume point matches — proving the retried bytes are the
// bytes whose prefix was already analyzed — and applies everything after.
// A mismatched checksum, a resume point inside an invocation's profile
// group, or a stream shorter than the resume point is an error with
// nothing applied.
func (r *Replay) ConsumeResume(dec *wire.Decoder, skipFrames, checksum uint64) (wire.Manifest, error) {
	return r.consume(dec, skipFrames, checksum)
}

func (r *Replay) consume(dec *wire.Decoder, skip, skipSum uint64) (wire.Manifest, error) {
	var tr wire.Trailer
	var meta *wire.HistoryMeta
	var windows []WindowSummary
	var pendCycles uint64
	var profs []*AddressProfile
	var alphas []float64
	pendLeft := -1
	seq := startSequencer(r.an)
	defer seq.stop()
	// Progress is per-stream: until this stream applies an invocation (or
	// clears its skip prefix), there is no safe point to resume it from.
	r.safeFrames, r.safeChk = 0, 0
	skipping := skip > 0
	if skipping {
		if dec.Frames() > skip {
			return wire.Manifest{}, fmt.Errorf("umi: resume: decoder already past frame %d: %w", skip, ErrResume)
		}
		if dec.Frames() == skip {
			if dec.Checksum() != skipSum {
				return wire.Manifest{}, fmt.Errorf("umi: resume: checksum %#016x at frame %d, session recorded %#016x: %w",
					dec.Checksum(), skip, skipSum, ErrResume)
			}
			skipping = false
			r.safeFrames, r.safeChk = skip, skipSum
		}
	}
	for {
		start := time.Now()
		// Only this goroutine receives, so a buffered hand-back never blocks.
		for len(seq.free) > 0 {
			dec.Recycle(<-seq.free)
		}
		rec, err := dec.Next()
		if err == io.EOF {
			if skipping {
				return wire.Manifest{}, fmt.Errorf("umi: resume: point at frame %d past stream end: %w", skip, ErrResume)
			}
			break
		}
		if err != nil {
			return wire.Manifest{}, err
		}
		if skipping {
			// Decode-only replay of the already-applied prefix. Safe
			// points precede any history/trailer frames, so only
			// analyzer input can legitimately appear here.
			switch t := rec.(type) {
			case *wire.Invocation:
				pendLeft = t.Profiles
			case *wire.Profile:
				pendLeft--
			default:
				return wire.Manifest{}, fmt.Errorf("umi: resume: %T frame before resume point %d: %w", rec, skip, ErrResume)
			}
			if dec.Frames() == skip {
				if dec.Checksum() != skipSum {
					return wire.Manifest{}, fmt.Errorf("umi: resume: checksum %#016x at frame %d, session recorded %#016x: %w",
						dec.Checksum(), skip, skipSum, ErrResume)
				}
				if pendLeft > 0 {
					return wire.Manifest{}, fmt.Errorf("umi: resume: point at frame %d splits an invocation: %w", skip, ErrResume)
				}
				skipping = false
				r.safeFrames, r.safeChk = skip, skipSum
			}
			continue
		}
		switch t := rec.(type) {
		case *wire.Invocation:
			pendCycles = t.Cycles
			pendLeft = t.Profiles
			profs, alphas = nil, nil
			if pendLeft == 0 {
				r.invocation(seq, pendCycles, nil, nil)
				r.safeFrames, r.safeChk = dec.Frames(), dec.Checksum()
			}
		case *wire.Profile:
			// The decoder's grammar guarantees profiles only follow an
			// invocation that still expects them.
			profs = append(profs, profileFromWire(t))
			alphas = append(alphas, t.Alpha)
			pendLeft--
			if pendLeft == 0 {
				r.invocation(seq, pendCycles, profs, alphas)
				r.safeFrames, r.safeChk = dec.Frames(), dec.Checksum()
			}
		case *wire.HistoryMeta:
			if want := historyCap(r.cfg.HistoryWindows); t.Cap != want {
				return wire.Manifest{}, fmt.Errorf("wire: history meta cap %d, header's history windows imply %d", t.Cap, want)
			}
			meta = t
		case *wire.Window:
			windows = append(windows, windowFromWire(t))
		case *wire.Trailer:
			tr = *t
		}
		if r.OnFrame != nil {
			r.OnFrame(time.Since(start))
		}
	}
	if meta != nil {
		if meta.Total < uint64(len(windows)) {
			return wire.Manifest{}, fmt.Errorf("wire: history meta total %d < %d framed windows", meta.Total, len(windows))
		}
		r.histTotal += meta.Total
		r.histPhases += meta.PhaseChanges
		r.histCap = meta.Cap
		r.windows = append(r.windows, windows...)
		if n := len(r.windows); r.histCap > 0 && n > r.histCap {
			r.windows = append(r.windows[:0], r.windows[n-r.histCap:]...)
		}
	}
	r.sum.InstrumentEvents += tr.InstrumentEvents
	r.sum.GuestCycles += tr.GuestCycles
	r.sum.TotalCycles += tr.TotalCycles
	r.sum.Instrs += tr.Instrs
	r.sum.HWAccesses += tr.HWAccesses
	r.sum.HWMisses += tr.HWMisses
	r.sum.HWEvictions += tr.HWEvictions
	for _, pc := range tr.CandidatePCs {
		r.candidatePCs[pc] = true
	}
	for _, pc := range tr.TracePCs {
		r.tracePCs[pc] = true
	}
	return tr.Shard, nil
}

// History returns the capture side's streamed phase history, merged
// across the cleanly consumed shards: totals summed, windows concatenated
// and compacted to the capture cap. For a single shard it is the capture
// process's own history.
func (r *Replay) History() HistoryView {
	hv := (*History)(nil).View()
	hv.Total = r.histTotal
	hv.Dropped = r.histTotal - uint64(len(r.windows))
	hv.Cap = r.histCap
	hv.PhaseChanges = r.histPhases
	if len(r.windows) > 0 {
		// A copy: a later shard's compaction rewrites r.windows in place.
		hv.Windows = append([]WindowSummary(nil), r.windows...)
	}
	return hv
}

// Trailer returns the run accounting merged from the cleanly consumed
// shards' trailers: counts summed and PC sets unioned (sorted ascending).
// Its Shard manifest is zero.
func (r *Replay) Trailer() wire.Trailer {
	t := r.sum
	t.CandidatePCs = sortedPCs(r.candidatePCs)
	t.TracePCs = sortedPCs(r.tracePCs)
	return t
}

// Metrics exposes the replayer's self-observability registry (sequencer
// gauges, analyzer counters) for the session /metrics surface.
func (r *Replay) Metrics() *Metrics { return r.met }

// Report assembles the run report: analyzer state recomputed by the
// replay, plus the accounting only the capture process knew, merged from
// the stream trailers. Not concurrent with Consume.
func (r *Replay) Report() *Report {
	return &Report{
		Delinquent:          r.an.Delinquent(),
		Strides:             r.an.Strides(),
		OpStats:             r.an.OpStats(),
		SimMissRatio:        r.an.MissRatio(),
		ProfiledOps:         len(r.profiledPCs),
		CandidateOps:        len(r.candidatePCs),
		ProfilesCollected:   r.profiles,
		AnalyzerInvocations: r.an.Invocations,
		InstrumentEvents:    int(r.sum.InstrumentEvents),
		TracesSeen:          len(r.tracePCs),
		SimulatedRefs:       r.an.SimulatedRefs,
		Flushes:             r.an.Flushes,
	}
}

// HWMissRatio recomputes a hardware-model miss ratio from raw trailer
// counts through the same cache.Stats arithmetic the live path uses, so
// the replayed float is bit-identical to the in-process one.
func HWMissRatio(accesses, misses uint64) float64 {
	return cache.LevelStats{Accesses: accesses, Misses: misses}.MissRatio()
}
