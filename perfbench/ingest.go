package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"umi/internal/introspect"
	"umi/internal/wire"
	"umi/internal/workloads"
)

// The ingest workload: capture once, analyze many. Setup records the
// profile mix's guests with introspect.EmitStandalone and re-encodes each
// stream as umi-profile/v2; two closed-loop clients then upload streams the
// seed picks, each into a fresh {"ingest":true,"workers":2} session that is
// deleted once the result is back, as umiprof -ingest-addr does. Wire
// decode, the analyzer and mini-simulator, and daemon handling do all the
// work; vm, cache and rio do none.
//
// The stream set is fixed, not seed-drawn: upload latency follows stream
// size, and a drawn dozen would move its median between seeds by more than
// any bound. The seed draws the upload sequence.
//
// DELETE never closes an ingest session's umi.Replay, so every upload
// leaks its sequencer goroutine and SharedPrep lane: the run's throughput
// and memory depend on how many uploads it has served. The benchmark
// shows that rather than routing around it.

const ingestConfig = `{"ingest":true,"workers":2}`

// stream is one recorded guest, ready to upload.
type stream struct {
	guest  string
	suite  workloads.Suite
	v2     []byte
	header http.Header // the X-Umi-Shard-* manifest umiprof declares
	want   []byte      // the capture run's RunResult, rendered as the daemon renders it
	refs   float64     // recorded references (profile cells) in the stream
	instrs float64     // guest instructions the capture run retired
	v1Len  int
}

type ingestState struct {
	streams []*stream
	dm      *daemon
}

func (s *ingestState) digest() string {
	var parts [][]byte
	for _, st := range s.streams {
		parts = append(parts, st.v2, st.want)
	}
	return digestOf(parts...)
}

func (s *ingestState) close() { s.dm.close() }

// recordStream captures w's run, transcodes it to v2 and reads its
// manifest; decoding it counts the recorded references.
func recordStream(w *workloads.Workload) (*stream, error) {
	var v1, v2 bytes.Buffer
	res, err := introspect.EmitStandalone(introspect.SessionConfig{Workload: w.Name}, &v1)
	if err != nil {
		return nil, fmt.Errorf("%s capture: %w", w.Name, err)
	}
	s := &stream{guest: w.Name, suite: w.Suite, v1Len: v1.Len(), instrs: float64(res.Instrs)}
	if err := wire.Transcode(&v2, &v1, wire.Version2); err != nil {
		return nil, fmt.Errorf("%s transcode: %w", w.Name, err)
	}
	s.v2 = v2.Bytes()
	m, ok, err := wire.ScanManifest(bytes.NewReader(s.v2))
	if err != nil || !ok {
		return nil, fmt.Errorf("%s manifest: ok=%v err=%v", w.Name, ok, err)
	}
	s.header = http.Header{
		"Content-Type":         {"application/octet-stream"},
		"X-Umi-Shard-Id":       {strconv.FormatUint(m.ShardID, 10)},
		"X-Umi-Shard-Frames":   {strconv.FormatUint(m.Frames, 10)},
		"X-Umi-Shard-Checksum": {strconv.FormatUint(m.Checksum, 10)},
	}
	refs, err := decodeOnly(s.v2)
	if err != nil {
		return nil, fmt.Errorf("%s decode: %w", w.Name, err)
	}
	s.refs = float64(refs)
	if s.want, err = renderResult(res); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeOnly walks a stream with the wire decoder — Header, then Next up
// to the Trailer — and returns the recorded references its profiles carry.
func decodeOnly(data []byte) (int, error) {
	dec := wire.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Header(); err != nil {
		return 0, err
	}
	refs := 0
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return 0, err
		}
		if p, ok := rec.(*wire.Profile); ok {
			refs += p.Recorded
		}
	}
}

func setupIngest(mix []*workloads.Workload, tr *tracer) (*ingestState, error) {
	st := &ingestState{streams: make([]*stream, len(mix))}
	err := parallel(len(mix), func(i int) error {
		s, err := recordStream(mix[i])
		st.streams[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	st.dm, err = startDaemon(tr)
	return st, err
}

func runIngest(cfg config, out io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	mix, assembleS, err := assembleMix(cfg)
	if err != nil {
		return nil, err
	}
	st, setupS, err := setupRepeated(cfg, out, func() (*ingestState, error) { return setupIngest(mix, tr) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	fmt.Fprintf(out, "setup assembly_s=%.4f per_setup_s=%.4f\n", assembleS, setupS)
	res := &result{metrics: map[string]float64{"setup_s": assembleS + setupS}, raw: map[string]float64{}}
	for i, s := range st.streams {
		fmt.Fprintf(out, "input stream=%d %s suite=%s v2_bytes=%d v1_bytes=%d refs=%.0f instrs=%.0f\n",
			i, s.guest, s.suite, len(s.v2), s.v1Len, s.refs, s.instrs)
	}
	if cfg.corrupt {
		for _, s := range st.streams {
			corruptAll(s.want)
		}
	}
	res.digest = st.digest()

	var ladder []ingestSums
	if cfg.trace {
		// The ladder below the HTTP path: decode only, ReplayStream, and
		// the daemon's handler called in-process. Several passes, so the
		// medians settle.
		for pass := 0; pass < 3; pass++ {
			s, err := ingestLadder(st, tr, res, out)
			if err != nil {
				return nil, err
			}
			ladder = append(ladder, s)
		}
	}
	loop := closedLoop(st.dm, seconds(cfg.seconds), cfg.seed, len(st.streams), cfg.trace,
		func(i int, traced bool) (time.Duration, error) {
			s := st.streams[i]
			return st.dm.operation([]byte(ingestConfig),
				request{route: "ingest", method: http.MethodPost, body: s.v2, header: s.header}, s.want, traced)
		}, out)
	res.attempted += loop.attempted
	res.failed += loop.failed
	sumInstrs, sumRefs := loopMetrics(loop, func(i int) float64 { return st.streams[i].instrs },
		func(i int) float64 { return st.streams[i].refs }, res.metrics)
	fmt.Fprintf(out, "measured uploads=%d served=%d elapsed_s=%.3f goroutines_leaked=%d sessions_live=%d\n",
		loop.attempted, len(loop.lats), loop.elapsed.Seconds(), loop.goroutinesLeaked, st.dm.d.SessionCount())
	if !cfg.trace {
		return res, nil
	}

	per := func(f func(ingestSums) float64) float64 {
		var xs []float64
		for _, s := range ladder {
			xs = append(xs, f(s))
		}
		return quantile(xs, 0.5)
	}
	res.metrics["wire.decode_ns_per_ref"] = per(func(s ingestSums) float64 { return ratio(float64(s.decode), s.refs) })
	res.metrics["wire.bytes_per_ref"] = ratio(ladder[0].bytes, ladder[0].refs)
	res.metrics["umi.replay_ns_per_ref"] = per(func(s ingestSums) float64 { return ratio(float64(s.replay-s.decode), s.refs) })
	var replays []float64
	for _, s := range ladder {
		replays = append(replays, s.replayLats...)
	}
	daemonLayerMetrics(st.dm, loop, sumInstrs, sumRefs, replays, res, out)
	return res, writeSpans(cfg, tr, out)
}

// ingestSums is one pass of the ingest ladder.
type ingestSums struct {
	decode, replay time.Duration
	refs, bytes    float64
	replayLats     []float64
}

// ingestLadder runs every stream through the rungs below HTTP: decode
// only, introspect.ReplayStream at two workers, and one create, ingest,
// delete through the daemon's handler called in-process.
func ingestLadder(st *ingestState, tr *tracer, res *result, out io.Writer) (ingestSums, error) {
	var sums ingestSums
	for _, s := range st.streams {
		op := tr.newOp()
		root := tr.start(op, 0, "op.ladder")
		sp := tr.start(op, root.ID, "rung.decode")
		refs, err := decodeOnly(s.v2)
		sums.decode += tr.finish(sp).dur()
		if err != nil {
			return sums, fmt.Errorf("%s decode: %w", s.guest, err)
		}
		sums.refs += float64(refs)
		sums.bytes += float64(len(s.v2))

		sp = tr.start(op, root.ID, "rung.replay")
		rr, err := introspect.ReplayStream(bytes.NewReader(s.v2), 2)
		d := tr.finish(sp).dur()
		sums.replay += d
		sums.replayLats = append(sums.replayLats, ms(d))
		var body []byte
		if err == nil {
			body, err = renderResult(rr)
		}
		check(res, out, s.guest+" replay", err, body, s.want)

		hs := tr.start(op, root.ID, "rung.handler")
		_, body, err = st.dm.session(st.dm.direct, op, hs.ID, []byte(ingestConfig),
			request{route: "ingest", method: http.MethodPost, body: s.v2, header: s.header})
		tr.finish(hs)
		check(res, out, s.guest+" handler", err, body, s.want)
		tr.finish(root)
	}
	return sums, nil
}
