// Remote ingestion: POST /sessions/{id}/ingest accepts umi-profile/v1 and
// /v2 streams (recorded by `umiprof -emit` or EmitStandalone, or tailed
// live by `umiprof -emit-live`) and compiles them into a replay session:
// each upload decodes on its request goroutine and analyzes on a sequencer
// that lives for that upload. A single ingested
// stream reproduces the capture process's RunResult byte for byte;
// multiple shards merge into one logical run inside the session's
// umi.Replay — trailer counts sum, PC sets union, streamed window
// histories concatenate and compact to the ring cap, and the analyzer
// state (delinquent set, strides, logical cache) carries across shards.
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
// plus hand-off for one frame, where the hand-off may wait behind a full
// sequencer queue.
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

// ingestState is the per-session replay state, created on the first
// shard. Guarded by the session mutex; the handler takes ownership while
// state is running, so only one ingest touches it at a time.
type ingestState struct {
	replay *umi.Replay // merges the shards' analysis and accounting
	key    string      // ReplayConfigKey of the first shard; later shards must match
	guest  string      // workload name from the first header

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

// errHeaderStage marks failures before any replay state was touched (bad
// preamble, unsupported version, config rejection): the session restores
// to its previous state so the client can retry with a corrected stream.
var errHeaderStage = errors.New("header stage")

// errOversized classifies a body past MaxStreamBytes: 413, counted apart
// from decode errors.
var errOversized = errors.New("stream too large")

// ingestStream decodes and replays one stream into the session's replay.
// Caller holds no locks; the session is in state running, so the ingest
// state is exclusively ours. resume replays a re-sent stream
// through the session's recorded resume point (skip-verify, then apply).
func (d *Daemon) ingestStream(s *session, body io.Reader, resume bool) error {
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
		st.applied = make(map[uint64]wire.Manifest)
	} else if key := umi.ReplayConfigKey(h); key != st.key {
		return fmt.Errorf("%w: session expects %q, stream carries %q", errShardConfig, st.key, key)
	}

	var man wire.Manifest
	if resume && st.resumeFrames > 0 {
		man, err = st.replay.ConsumeResume(dec, st.resumeFrames, st.resumeChk)
	} else {
		man, err = st.replay.Consume(dec)
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

	// Remember the shard's manifest (v2 streams carry one) so a retried
	// upload declaring the same manifest is a no-op.
	if man.ShardID != 0 {
		st.applied[man.ShardID] = man
	}
	st.resumeFrames, st.resumeChk = 0, 0
	return nil
}

// ReplayStream replays one recorded umi-profile stream (v1 or v2) outside
// any daemon and returns its RunResult — byte-identical (marshaled) to the
// capture process's. The `umiprof -ingest` path. workers is ignored: the
// replay always analyzes on its own sequencer. The parameter remains only
// because the whole-run benchmark (perfbench/) passes it.
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
	rp := umi.NewReplay(cfg)
	if _, err := rp.Consume(dec); err != nil {
		return nil, fmt.Errorf("stream decode: %w", err)
	}
	return replayResult(rp), nil
}

// replayResult assembles a replay's RunResult from what the Replay merged:
// the replayed report, the streamed history, and the run accounting the
// trailers carried, with the hardware-model ratio recomputed from summed
// raw counts — for a single shard, byte-identical to the capture
// process's RunResult.
func replayResult(rp *umi.Replay) *RunResult {
	tr := rp.Trailer()
	return &RunResult{
		Report:      rp.Report(),
		History:     rp.History(),
		HWMissRatio: umi.HWMissRatio(tr.HWAccesses, tr.HWMisses),
		Cycles:      tr.TotalCycles,
		Instrs:      tr.Instrs,
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
		// Deleted after the lookup: nobody can read what it would ingest.
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

	err := d.ingestStream(s, http.MaxBytesReader(w, r.Body, MaxStreamBytes), prev == stateResumable)

	s.mu.Lock()
	var res *RunResult
	var resumedAt uint64
	switch {
	case err == nil:
		s.state = stateDone
		res = replayResult(s.ing.replay)
		s.result = res
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
	s.mu.Unlock()

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
