// Remote ingestion: POST /sessions/{id}/ingest accepts umi-profile/v1 and
// /v2 streams (recorded by `umiprof -emit` or EmitStandalone, or tailed
// live by `umiprof -emit-live`) and compiles them into a replay session
// analyzed on the daemon's shared preparation pool. A single ingested
// stream reproduces the capture process's RunResult byte for byte;
// multiple shards merge into one logical run — trailer counts sum, PC
// sets union, streamed window histories concatenate and compact to the
// ring cap, and the analyzer state (delinquent set, strides, logical
// cache) simply carries across shards.
//
// Fault handling is classified, not uniform:
//
//   - Oversized bodies are 413 and never poison: one declared by
//     Content-Length is refused before anything is read, and a chunked
//     body that walks past the cap mid-read parks the session resumable
//     (its applied prefix is skip-verified on the re-send, like a live
//     cut).
//   - Header-stage failures (bad preamble, config rejection) are 400 and
//     restore the previous state — no replay state was touched.
//   - A duplicate shard (same manifest, declared via the X-Umi-Shard-*
//     request headers) is an idempotent no-op.
//   - A live upload (?live=1) that cuts off mid-stream parks the session
//     in state resumable; re-sending the same stream resumes at the last
//     applied invocation boundary, verified by rolling checksum.
//   - Content corruption mid-stream still poisons: part of the shard was
//     analyzed, so any later merge would be silently wrong.
package introspect

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"umi/internal/cache"
	"umi/internal/metrics"
	"umi/internal/umi"
	"umi/internal/wire"
)

// MaxStreamBytes bounds one POST /sessions/{id}/ingest body. The decoder
// is bounded-memory regardless of stream length; this cap bounds the
// analyzer work one request can submit. A variable, not a constant, so
// tests can exercise the oversized path without a quarter-gigabyte body.
var MaxStreamBytes int64 = 256 << 20

// ingestMetrics is the daemon-level ingest observability registry,
// exposed in the fleet Prometheus exposition under the session label
// "ingest".
type ingestMetrics struct {
	reg          *metrics.Registry
	Streams      *metrics.Counter
	Frames       *metrics.Counter
	Bytes        *metrics.Counter
	DecodeErrors *metrics.Counter
	Oversized    *metrics.Counter
	Duplicates   *metrics.Counter
	Resumed      *metrics.Counter
	FrameLatency *metrics.Histogram
}

// frameLatencyBuckets: 250ns doubling through ~4s (24 buckets) — decode
// plus apply for one frame, where the apply may be a whole profile's
// mini-simulation.
var frameLatencyBuckets = metrics.ExpBuckets(250, 24)

func newIngestMetrics() *ingestMetrics {
	reg := metrics.NewRegistry()
	return &ingestMetrics{
		reg:          reg,
		Streams:      reg.Counter("umid.ingest.streams"),
		Frames:       reg.Counter("umid.ingest.frames"),
		Bytes:        reg.Counter("umid.ingest.bytes"),
		DecodeErrors: reg.Counter("umid.ingest.decode_errors"),
		Oversized:    reg.Counter("umid.ingest.oversized"),
		Duplicates:   reg.Counter("umid.ingest.duplicate_shards"),
		Resumed:      reg.Counter("umid.ingest.resumed_streams"),
		FrameLatency: reg.Histogram("umid.ingest.frame_latency_ns", frameLatencyBuckets),
	}
}

// ingestState is the per-session replay accumulator, created on the first
// shard. Guarded by the session mutex; the handler takes ownership while
// state is running, so only one ingest touches it at a time.
type ingestState struct {
	replay *umi.Replay
	key    string // ReplayConfigKey of the first shard; later shards must match
	guest  string // workload name from the first header
	shards int

	// Shard-mergeable accounting: counts sum, PC sets union.
	instrumentEvents uint64
	cycles           uint64
	instrs           uint64
	hw               cache.LevelStats
	candidatePCs     map[uint64]bool
	tracePCs         map[uint64]bool

	// Streamed capture-side window history, concatenated across shards
	// and compacted to the ring cap on render. Streamed rather than
	// recomputed: optional capture-side consumers (working-set size) feed
	// fields a replay cannot rebuild.
	windows    []umi.WindowSummary
	histTotal  uint64
	histPhases uint64
	histCap    int

	// applied records the manifest of every v2 shard folded in, keyed by
	// shard ID — the duplicate-upload idempotence check. v1 shards carry
	// no manifest and are never deduplicated.
	applied map[uint64]wire.Manifest

	// Live-tail resume point, meaningful while the session is resumable:
	// the frame count and rolling checksum of the truncated stream's
	// applied prefix (umi.Replay.Progress at the cut).
	resumeFrames uint64
	resumeChk    uint64
}

// errShardConfig distinguishes a cross-shard configuration mismatch (a
// client error on an otherwise healthy session) from a decode failure.
var errShardConfig = errors.New("shard configuration mismatch")

// errShardApplied marks a shard-config mismatch detected only after the
// shard's analyzer input was already replayed (the history cap rides in a
// frame near the stream's end). The request is still the client's fault
// (409), but the session cannot be restored to its previous state — the
// merge is tainted, so it poisons.
var errShardApplied = errors.New("shard partially applied")

// errHeaderStage marks failures before any replay state was touched (bad
// preamble, unsupported version, config rejection): the session restores
// to its previous state so the client can retry with a corrected stream.
var errHeaderStage = errors.New("header stage")

// errOversized classifies a body past MaxStreamBytes: 413, counted apart
// from decode errors.
var errOversized = errors.New("stream too large")

// ingestStream decodes and replays one stream into the session's
// accumulator. Caller holds no locks; the session is in state running, so
// the accumulator is exclusively ours. resume replays a re-sent stream
// through the session's recorded resume point (skip-verify, then apply).
func (d *Daemon) ingestStream(s *session, body io.Reader, workers int, resume bool) error {
	dec := wire.NewDecoder(body)
	h, err := dec.Header()
	if err != nil {
		d.ingest.DecodeErrors.Add(1)
		return fmt.Errorf("stream header: %w (%w)", err, errHeaderStage)
	}
	st := s.ing
	if st.replay == nil {
		cfg, err := umi.ConfigFromWireHeader(h)
		if err != nil {
			d.ingest.DecodeErrors.Add(1)
			return fmt.Errorf("stream header: %w (%w)", err, errHeaderStage)
		}
		cfg.AnalyzerWorkers = workers
		if workers >= 2 {
			cfg.SharedPrep = d.shared
		}
		rp := umi.NewReplay(cfg)
		rp.OnFrame = func(lat time.Duration) {
			d.ingest.FrameLatency.Observe(uint64(lat))
		}
		// Concurrent scrapes read replay and guest through the session
		// mutex; publish them the same way.
		s.mu.Lock()
		st.replay = rp
		st.guest = h.Workload
		s.mu.Unlock()
		st.key = umi.ReplayConfigKey(h)
		st.candidatePCs = make(map[uint64]bool)
		st.tracePCs = make(map[uint64]bool)
		st.applied = make(map[uint64]wire.Manifest)
	} else if key := umi.ReplayConfigKey(h); key != st.key {
		return fmt.Errorf("%w: session expects %q, stream carries %q", errShardConfig, st.key, key)
	}

	var shard *umi.ReplayShard
	if resume && st.resumeFrames > 0 {
		shard, err = st.replay.ConsumeResume(dec, st.resumeFrames, st.resumeChk)
	} else {
		shard, err = st.replay.Consume(dec)
	}
	d.ingest.Frames.Add(uint64(dec.Frames()))
	d.ingest.Bytes.Add(uint64(dec.Bytes()))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			d.ingest.Oversized.Add(1)
			return fmt.Errorf("%w: body exceeds %d bytes", errOversized, MaxStreamBytes)
		}
		d.ingest.DecodeErrors.Add(1)
		return fmt.Errorf("stream decode: %w", err)
	}
	if resume && st.resumeFrames > 0 {
		d.ingest.Resumed.Add(1)
	}
	d.ingest.Streams.Add(1)

	// The history ring cap is config, but it rides in a frame near the
	// stream's end — a disagreement is detected only after this shard's
	// analyzer input was replayed, so it must poison alongside the 409
	// (see errShardApplied). First shard with a history section wins;
	// later shards must agree.
	if st.shards > 0 && st.histCap != 0 && shard.History.Cap != 0 && shard.History.Cap != st.histCap {
		return fmt.Errorf("%w: history cap %d, first shard recorded %d (%w)",
			errShardConfig, shard.History.Cap, st.histCap, errShardApplied)
	}

	st.apply(shard)
	st.resumeFrames, st.resumeChk = 0, 0
	return nil
}

// apply folds one cleanly-consumed shard into the accumulator.
func (st *ingestState) apply(shard *umi.ReplayShard) {
	tr := shard.Trailer
	st.shards++
	st.instrumentEvents += tr.InstrumentEvents
	st.cycles += tr.TotalCycles
	st.instrs += tr.Instrs
	st.hw.Accesses += tr.HWAccesses
	st.hw.Misses += tr.HWMisses
	for _, pc := range tr.CandidatePCs {
		st.candidatePCs[pc] = true
	}
	for _, pc := range tr.TracePCs {
		st.tracePCs[pc] = true
	}
	st.histTotal += shard.History.Total
	st.histPhases += shard.History.PhaseChanges
	if shard.History.Cap != 0 {
		st.histCap = shard.History.Cap
	}
	st.windows = append(st.windows, shard.History.Windows...)
	// Remember the shard's manifest (v2 streams carry one) so a retried
	// upload declaring the same manifest is a no-op.
	if m := tr.Shard; m.ShardID != 0 && st.applied != nil {
		st.applied[m.ShardID] = m
	}
}

// ReplayStream replays one recorded umi-profile/v1 stream outside any
// daemon and returns its RunResult — byte-identical (marshaled) to the
// capture process's, at any worker count. The `umiprof -ingest` path.
func ReplayStream(body io.Reader, workers int) (*RunResult, error) {
	dec := wire.NewDecoder(body)
	h, err := dec.Header()
	if err != nil {
		return nil, fmt.Errorf("stream header: %w", err)
	}
	cfg, err := umi.ConfigFromWireHeader(h)
	if err != nil {
		return nil, fmt.Errorf("stream header: %w", err)
	}
	cfg.AnalyzerWorkers = workers
	rp := umi.NewReplay(cfg)
	defer rp.Close()
	shard, err := rp.Consume(dec)
	if err != nil {
		return nil, fmt.Errorf("stream decode: %w", err)
	}
	st := &ingestState{
		replay:       rp,
		candidatePCs: make(map[uint64]bool),
		tracePCs:     make(map[uint64]bool),
	}
	st.apply(shard)
	return st.result(), nil
}

// result assembles the session's merged RunResult: the replayed report
// with merged run accounting, the compacted streamed history, and the
// hardware-model ratio recomputed from summed raw counts — for a single
// shard, byte-identical to the capture process's RunResult.
func (st *ingestState) result() *RunResult {
	rep := st.replay.Report(len(st.tracePCs), len(st.candidatePCs), st.instrumentEvents)
	ws := st.windows
	if st.histCap > 0 && len(ws) > st.histCap {
		ws = ws[len(ws)-st.histCap:]
	}
	// Cap the result's windows at their length: an append to them then
	// copies instead of writing into the accumulator's spare capacity,
	// where a later shard's windows land.
	ws = ws[:len(ws):len(ws)]
	hv := (*umi.History)(nil).View()
	hv.Total = st.histTotal
	hv.Dropped = st.histTotal - uint64(len(ws))
	hv.Cap = st.histCap
	hv.PhaseChanges = st.histPhases
	if len(ws) > 0 {
		hv.Windows = ws
	}
	return &RunResult{
		Report:      rep,
		History:     hv,
		HWMissRatio: st.hw.MissRatio(),
		Cycles:      st.cycles,
		Instrs:      st.instrs,
	}
}

// shardManifestHeaders reads the client-declared shard manifest from the
// X-Umi-Shard-{Id,Frames,Checksum} request headers (decimal uint64s, as
// `umiprof` sends after a wire.ScanManifest pass over the file). All
// three present and parseable, or no manifest.
func shardManifestHeaders(r *http.Request) (wire.Manifest, bool) {
	var m wire.Manifest
	for _, f := range []struct {
		name string
		dst  *uint64
	}{
		{"X-Umi-Shard-Id", &m.ShardID},
		{"X-Umi-Shard-Frames", &m.Frames},
		{"X-Umi-Shard-Checksum", &m.Checksum},
	} {
		v, err := strconv.ParseUint(r.Header.Get(f.name), 10, 64)
		if err != nil {
			return wire.Manifest{}, false
		}
		*f.dst = v
	}
	return m, m.ShardID != 0
}

// ingestSession is POST /sessions/{id}/ingest: replay one stream into the
// session. Repeatable — each accepted shard leaves the session done with
// a merged result. Faults are classified (see the package comment): only
// mid-stream content corruption — partially-applied analysis that a
// retry cannot reconcile — poisons the session; a live upload (?live=1)
// that cuts off parks it resumable instead, and everything detected
// before replay state changes restores the previous state.
func (d *Daemon) ingestSession(w http.ResponseWriter, r *http.Request) {
	s, ok := d.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	if !s.cfg.Ingest {
		httpError(w, http.StatusConflict, "session %s does not ingest; create it with \"ingest\": true", s.id)
		return
	}

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	d.runs.Add(1)
	d.mu.Unlock()
	defer d.runs.Done()

	// A declared body past the cap is refused before any state changes —
	// the cheap half of the oversized check; chunked bodies without a
	// length are caught by MaxBytesReader below.
	if r.ContentLength > MaxStreamBytes {
		d.ingest.Oversized.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge,
			"stream of %d bytes exceeds the %d-byte ingest cap", r.ContentLength, MaxStreamBytes)
		return
	}
	live := r.URL.Query().Get("live") == "1"

	s.mu.Lock()
	switch {
	case s.deleted:
		// Deleted after the lookup: its replay is closed or closing.
		s.mu.Unlock()
		http.NotFound(w, r)
		return
	case s.state == stateRunning:
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %s has an ingest in flight", s.id)
		return
	case s.state == stateFailed:
		err := s.runErr
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %s is poisoned by an earlier shard: %v", s.id, err)
		return
	}
	// Duplicate-shard check: a manifest the session already applied makes
	// this upload an idempotent no-op (same content — the retry case); the
	// same shard ID with different content is a client error.
	if man, ok := shardManifestHeaders(r); ok && s.ing != nil {
		if prevMan, dup := s.ing.applied[man.ShardID]; dup {
			res := s.result
			s.mu.Unlock()
			if prevMan != man {
				httpError(w, http.StatusConflict,
					"shard %d already applied with different content (frames %d checksum %#016x)",
					man.ShardID, prevMan.Frames, prevMan.Checksum)
				return
			}
			d.ingest.Duplicates.Add(1)
			writeJSON(w, res)
			return
		}
	}
	prev := s.state
	s.state = stateRunning
	if s.ing == nil {
		s.ing = &ingestState{}
	}
	s.mu.Unlock()

	err := d.ingestStream(s, http.MaxBytesReader(w, r.Body, MaxStreamBytes), s.cfg.Workers, prev == stateResumable)

	s.mu.Lock()
	var res *RunResult
	var resumedAt uint64
	switch {
	case err == nil:
		s.state = stateDone
		res = s.ing.result()
		s.result = res
	case errors.Is(err, errShardApplied):
		// Client error (409) found only after the shard replayed: the
		// merge is tainted, so the session poisons too.
		s.state = stateFailed
		s.runErr = err
	case errors.Is(err, errShardConfig), errors.Is(err, errHeaderStage),
		errors.Is(err, umi.ErrResume):
		// Nothing was applied; the session stays healthy at its previous
		// state (for ErrResume that is resumable — still awaiting a
		// correct retry).
		s.state = prev
	case live && errors.Is(err, wire.ErrTruncated), errors.Is(err, errOversized):
		// The stream stopped cleanly from the replayer's point of view —
		// a live connection cut, or a chunked body walking past the
		// ingest cap mid-read — at a boundary it can resume from. Park
		// the session resumable; the client re-sends the stream and the
		// applied prefix is skip-verified, not re-applied. A retry that
		// dies earlier than the last one keeps the further-along resume
		// point.
		s.state = stateResumable
		if frames, chk := s.ing.replay.Progress(); frames > s.ing.resumeFrames {
			s.ing.resumeFrames, s.ing.resumeChk = frames, chk
		}
		resumedAt = s.ing.resumeFrames
	default:
		s.state = stateFailed
		s.runErr = err
	}
	var orphan *umi.Replay
	if s.deleted {
		// Deleted mid-ingest: nobody can reach the session any more.
		orphan = s.ing.replay
	}
	s.mu.Unlock()
	if orphan != nil {
		orphan.Close()
	}

	switch {
	case err == nil:
		writeJSON(w, res)
	case errors.Is(err, errShardConfig), errors.Is(err, umi.ErrResume):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, errOversized):
		httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case live && errors.Is(err, wire.ErrTruncated):
		httpError(w, http.StatusConflict,
			"live stream cut off; session resumable at frame %d — re-send the stream to resume: %v", resumedAt, err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}
