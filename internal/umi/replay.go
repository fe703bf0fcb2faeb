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

// Replay drives an Analyzer from a recorded umi-profile/v1 stream instead
// of a live guest: the receiving half of capture-once/analyze-many. It
// mirrors the in-process analysis paths exactly — BeginInvocation with
// the recorded hand-off cycle stamp, profiles in recorded order, window
// capture with the same stamp — inline (Workers < 2) or through the
// asynchronous pipeline's sequencer, so a report assembled from a replay
// is byte-identical to the capture process's report at any worker count.
//
// A Replay outlives a single stream: feeding it several shards in
// sequence continues the analysis (the logical cache, delinquent set, and
// history carry across shards exactly as they carry across invocations),
// which is the daemon's multi-shard ingest merge.
type Replay struct {
	cfg  Config
	an   *Analyzer
	met  *Metrics
	pool *analyzerPool

	// OnFrame, when set, observes the wall-clock latency of each stream
	// record Consume processed (decode plus apply) — the ingest path's
	// per-frame latency histogram feed. Purely observational.
	OnFrame func(time.Duration)

	profiledPCs map[uint64]bool
	profiles    int

	// Last safe resume point: the decoder's frame count and rolling
	// checksum immediately after the most recently applied invocation.
	// Safe points land only on invocation boundaries — resuming anywhere
	// else would split an invocation's profile group across uploads.
	safeFrames uint64
	safeChk    uint64

	// Reusable per-invocation staging (profile pointers hand ownership to
	// the analyzer; only the slice headers are recycled).
	profs  []*AddressProfile
	alphas []float64
}

// NewReplay builds a replayer for a stream-derived config
// (ConfigFromWireHeader, plus AnalyzerWorkers layered on by the caller).
// With AnalyzerWorkers ≥ 2 analysis runs through the same pipeline a live
// System would use.
func NewReplay(cfg Config) *Replay {
	r := &Replay{
		cfg:         cfg,
		met:         newMetrics(),
		profiledPCs: make(map[uint64]bool),
	}
	r.an = NewAnalyzer(&r.cfg)
	r.an.met = r.met
	if cfg.HistoryWindows >= 0 {
		r.an.hist = newHistory(cfg.HistoryWindows, cfg.PhaseMissDelta, cfg.PhaseChurnDelta)
	}
	if cfg.AnalyzerWorkers >= 2 {
		r.pool = newAnalyzerPool(r.an, nil, r.met, nil)
	}
	return r
}

// invocation applies one recorded invocation: the exact sequence either
// in-process path runs, minus the guest.
func (r *Replay) invocation(cycles uint64, profs []*AddressProfile, alphas []float64) {
	for _, p := range profs {
		for _, pc := range p.Ops {
			r.profiledPCs[pc] = true
		}
	}
	r.profiles += len(profs)
	if r.pool != nil {
		cost := r.cfg.AnalyzerFixed
		for _, p := range profs {
			cost += r.cfg.AnalyzerPerRef * uint64(p.Recorded())
		}
		// profs and alphas are r's reused staging slices; the sequencer
		// gets copies it owns.
		r.pool.submit(cycles, cost, append([]*AddressProfile(nil), profs...), append([]float64(nil), alphas...))
		return
	}
	r.an.BeginInvocation(cycles)
	for i, p := range profs {
		r.an.AnalyzeProfile(p, alphas[i])
	}
	r.an.captureWindow(cycles, nil)
}

// ReplayShard is what one consumed stream carried besides analyzer input:
// the capture side's streamed phase history (as recorded there — it may
// include working-set lines a replay could not recompute) and the run
// trailer. Trailer counts sum and PC sets union across shards; the
// introspect layer owns that accounting.
type ReplayShard struct {
	History HistoryView
	Trailer wire.Trailer
}

// Consume replays one stream (after its header has been read and
// validated by the caller) into the analyzer. On a decode error the
// analyzer keeps whatever invocations were applied before the bad frame —
// the caller decides whether a partially-applied shard poisons the
// session (Progress reports how far the applied prefix reached). The
// replayer stays usable for further shards after a clean consume.
func (r *Replay) Consume(dec *wire.Decoder) (*ReplayShard, error) {
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
func (r *Replay) ConsumeResume(dec *wire.Decoder, skipFrames, checksum uint64) (*ReplayShard, error) {
	return r.consume(dec, skipFrames, checksum)
}

func (r *Replay) consume(dec *wire.Decoder, skip, skipSum uint64) (*ReplayShard, error) {
	shard := &ReplayShard{}
	var meta *wire.HistoryMeta
	var windows []WindowSummary
	var pendCycles uint64
	pendLeft := -1
	// Progress is per-stream: until this stream applies an invocation (or
	// clears its skip prefix), there is no safe point to resume it from.
	r.safeFrames, r.safeChk = 0, 0
	skipping := skip > 0
	if skipping {
		if dec.Frames() > skip {
			return nil, fmt.Errorf("umi: resume: decoder already past frame %d: %w", skip, ErrResume)
		}
		if dec.Frames() == skip {
			if dec.Checksum() != skipSum {
				return nil, fmt.Errorf("umi: resume: checksum %#016x at frame %d, session recorded %#016x: %w",
					dec.Checksum(), skip, skipSum, ErrResume)
			}
			skipping = false
			r.safeFrames, r.safeChk = skip, skipSum
		}
	}
	for {
		start := time.Now()
		rec, err := dec.Next()
		if err == io.EOF {
			if skipping {
				return nil, fmt.Errorf("umi: resume: point at frame %d past stream end: %w", skip, ErrResume)
			}
			break
		}
		if err != nil {
			return nil, err
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
				return nil, fmt.Errorf("umi: resume: %T frame before resume point %d: %w", rec, skip, ErrResume)
			}
			if dec.Frames() == skip {
				if dec.Checksum() != skipSum {
					return nil, fmt.Errorf("umi: resume: checksum %#016x at frame %d, session recorded %#016x: %w",
						dec.Checksum(), skip, skipSum, ErrResume)
				}
				if pendLeft > 0 {
					return nil, fmt.Errorf("umi: resume: point at frame %d splits an invocation: %w", skip, ErrResume)
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
			r.profs = r.profs[:0]
			r.alphas = r.alphas[:0]
			if pendLeft == 0 {
				r.invocation(pendCycles, nil, nil)
				r.safeFrames, r.safeChk = dec.Frames(), dec.Checksum()
			}
		case *wire.Profile:
			// The decoder's grammar guarantees profiles only follow an
			// invocation that still expects them.
			r.profs = append(r.profs, profileFromWire(t))
			r.alphas = append(r.alphas, t.Alpha)
			pendLeft--
			if pendLeft == 0 {
				r.invocation(pendCycles, r.profs, r.alphas)
				r.safeFrames, r.safeChk = dec.Frames(), dec.Checksum()
			}
		case *wire.HistoryMeta:
			meta = t
		case *wire.Window:
			windows = append(windows, windowFromWire(t))
		case *wire.Trailer:
			shard.Trailer = *t
		}
		if r.OnFrame != nil {
			r.OnFrame(time.Since(start))
		}
	}
	hv := HistoryView{Schema: historySchema, Windows: []WindowSummary{}}
	if meta != nil {
		if meta.Total < uint64(len(windows)) {
			return nil, fmt.Errorf("wire: history meta total %d < %d framed windows", meta.Total, len(windows))
		}
		hv.Total = meta.Total
		hv.Dropped = meta.Total - uint64(len(windows))
		hv.Cap = meta.Cap
		hv.PhaseChanges = meta.PhaseChanges
		if len(windows) > 0 {
			hv.Windows = windows
		}
	}
	shard.History = hv
	return shard, nil
}

// Sync blocks until every invocation consumed so far has been analyzed;
// the pipeline (if any) stays up for further shards. Analyzer-derived
// state (Report, History) is consistent after a Sync until the next
// Consume.
func (r *Replay) Sync() {
	if r.pool != nil {
		r.pool.drain()
	}
}

// Close drains the pipeline and stops its sequencer, if any. Further
// Consume calls fall back to inline analysis — reports are identical
// either way.
func (r *Replay) Close() {
	if r.pool != nil {
		r.pool.close()
		r.pool = nil
	}
}

// History returns the replay-side recomputed phase history (windows the
// replayed invocations re-captured — not the streamed capture-side
// history, which ReplayShard carries).
func (r *Replay) History() HistoryView {
	r.Sync()
	return r.an.hist.View()
}

// Metrics exposes the replayer's self-observability registry (pipeline
// gauges, analyzer counters) for the session /metrics surface.
func (r *Replay) Metrics() *Metrics { return r.met }

// Report assembles the run report: analyzer state recomputed by the
// replay, plus the accounting only the capture process knew, carried in
// (and, across shards, merged from) the stream trailers.
func (r *Replay) Report(tracesSeen, candidateOps int, instrumentEvents uint64) *Report {
	r.Sync()
	return &Report{
		Delinquent:          r.an.Delinquent(),
		Strides:             r.an.Strides(),
		OpStats:             r.an.OpStats(),
		SimMissRatio:        r.an.MissRatio(),
		ProfiledOps:         len(r.profiledPCs),
		CandidateOps:        candidateOps,
		ProfilesCollected:   r.profiles,
		AnalyzerInvocations: r.an.Invocations,
		InstrumentEvents:    int(instrumentEvents),
		TracesSeen:          tracesSeen,
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
