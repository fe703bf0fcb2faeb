package umi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"umi/internal/cache"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
	"umi/internal/wire"
)

// emitUMI runs a guest with stream emission enabled and returns the live
// system plus the recorded umi-profile/v1 stream — the capture side of
// every replay test.
func emitUMI(t *testing.T, p *program.Program, cfg Config) (*System, *rio.Runtime, []byte) {
	t.Helper()
	h := cache.NewP4(false)
	m := vm.New(p, h)
	rt := rio.NewRuntime(m)
	s := Attach(rt, cfg)
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.Header(WireHeader(&cfg, p.Name, "p4"))
	s.EnableWireEmit(enc)
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	s.EmitWireTail(enc, h)
	if err := enc.Flush(); err != nil {
		t.Fatalf("encoder flush: %v", err)
	}
	return s, rt, buf.Bytes()
}

// reportKey fingerprints a Report the way the pipeline-equivalence tests
// do, but from the report alone so live and replayed runs compare on
// equal footing.
func reportKey(r *Report) string {
	return fmt.Sprintf("del=%d miss=%v refs=%d flush=%d inv=%d prof=%d profops=%d cand=%d traces=%d instr=%d",
		len(r.Delinquent), r.SimMissRatio, r.SimulatedRefs, r.Flushes,
		r.AnalyzerInvocations, r.ProfilesCollected, r.ProfiledOps,
		r.CandidateOps, r.TracesSeen, r.InstrumentEvents)
}

// replayStream decodes one recorded stream into a fresh Replay at the
// given worker count and returns the replayed report and the replayer.
func replayStream(t *testing.T, stream []byte, workers int) (*Report, *Replay) {
	t.Helper()
	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	cfg, err := ConfigFromWireHeader(h)
	if err != nil {
		t.Fatalf("ConfigFromWireHeader: %v", err)
	}
	cfg.AnalyzerWorkers = workers
	r := NewReplay(cfg)
	defer r.Close()
	if _, err := r.Consume(dec); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	return r.Report(), r
}

// TestReplayMatchesInline is the wire format's load-bearing contract: a
// recorded stream replayed through umi.Replay reproduces the capture
// process's report — every analyzer-derived quantity, the full delinquent
// set, stride table, and op stats — and the streamed phase history it
// serves equals the live one. Checked at several replay worker counts,
// since the replayed pipeline must preserve the same determinism the live
// one does.
func TestReplayMatchesInline(t *testing.T) {
	prog := strideWorkload(t, 600_000)
	sys, _, stream := emitUMI(t, prog, testConfig())
	live := sys.Report()
	liveKey := reportKey(live)
	liveHist := sys.History()

	for _, workers := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep, r := replayStream(t, stream, workers)
			if got := reportKey(rep); got != liveKey {
				t.Errorf("replayed report key diverges:\n live   %s\n replay %s", liveKey, got)
			}
			if !reflect.DeepEqual(rep.Delinquent, live.Delinquent) {
				t.Errorf("delinquent sets differ: live %v replay %v", live.Delinquent, rep.Delinquent)
			}
			if !reflect.DeepEqual(rep.Strides, live.Strides) {
				t.Errorf("stride tables differ")
			}
			if !reflect.DeepEqual(rep.OpStats, live.OpStats) {
				t.Errorf("op stats differ")
			}
			// The replay serves the capture side's streamed history
			// verbatim.
			if got := r.History(); !reflect.DeepEqual(got, liveHist) {
				t.Errorf("streamed history diverges:\n live   %+v\n replay %+v", liveHist, got)
			}
			// Hardware-model scalars survive via raw trailer counts.
			if r.Trailer().HWAccesses == 0 {
				t.Error("trailer carried no hardware accesses")
			}
		})
	}
}

// TestReplayEmitDisabledIdentical: enabling emission must not perturb the
// run — the observer effect the telemetry layer promises to avoid.
func TestReplayEmitDisabledIdentical(t *testing.T) {
	prog := strideWorkload(t, 300_000)
	silent, rtS := runUMI(t, prog, testConfig())
	emitted, rtE, _ := emitUMI(t, prog, testConfig())
	if a, b := systemKey(silent, rtS), systemKey(emitted, rtE); a != b {
		t.Errorf("emission perturbed the run:\n silent %s\n emit   %s", a, b)
	}
}

// TestReplayEmitWorkerInvariance: the recorded stream must be
// byte-identical whatever the capture-side pipeline width, because
// emission happens on the guest thread before the analysis paths branch.
func TestReplayEmitWorkerInvariance(t *testing.T) {
	prog := manyLoopsWorkload(t, 8, 30_000)
	var base []byte
	for _, workers := range []int{0, 2, 4} {
		cfg := testConfig()
		cfg.AnalyzerWorkers = workers
		_, _, stream := emitUMI(t, prog, cfg)
		if base == nil {
			base = stream
			continue
		}
		if !bytes.Equal(base, stream) {
			t.Errorf("stream at workers=%d differs from workers=0 (%d vs %d bytes)",
				workers, len(stream), len(base))
		}
	}
}

// TestReplayShardMerge feeds the same stream twice into one Replay: the
// analysis must carry across shards exactly as it carries across
// invocations (twice the invocations and refs, one logical run), and the
// Replay merges the shards' accounting itself: trailer counts sum, PC
// sets union, streamed histories concatenate within the capture cap.
func TestReplayShardMerge(t *testing.T) {
	prog := strideWorkload(t, 300_000)
	sys, _, stream := emitUMI(t, prog, testConfig())
	live := sys.Report()

	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	cfg, err := ConfigFromWireHeader(h)
	if err != nil {
		t.Fatalf("ConfigFromWireHeader: %v", err)
	}
	r := NewReplay(cfg)
	if _, err := r.Consume(dec); err != nil {
		t.Fatalf("first shard: %v", err)
	}
	dec2 := wire.NewDecoder(bytes.NewReader(stream))
	if _, err := dec2.Header(); err != nil {
		t.Fatalf("second header: %v", err)
	}
	if _, err := r.Consume(dec2); err != nil {
		t.Fatalf("second shard: %v", err)
	}
	rep := r.Report()
	if rep.TracesSeen != live.TracesSeen || rep.CandidateOps != live.CandidateOps {
		t.Errorf("traces/candidates = %d/%d, want the union %d/%d",
			rep.TracesSeen, rep.CandidateOps, live.TracesSeen, live.CandidateOps)
	}
	if rep.InstrumentEvents != 2*live.InstrumentEvents {
		t.Errorf("instrument events = %d, want %d", rep.InstrumentEvents, 2*live.InstrumentEvents)
	}
	liveHist, hist := sys.History(), r.History()
	if hist.Total != 2*liveHist.Total || hist.Cap != liveHist.Cap ||
		len(hist.Windows) != min(2*len(liveHist.Windows), hist.Cap) {
		t.Errorf("merged history total/cap/windows = %d/%d/%d from a shard's %d/%d/%d",
			hist.Total, hist.Cap, len(hist.Windows), liveHist.Total, liveHist.Cap, len(liveHist.Windows))
	}
	if rep.AnalyzerInvocations != 2*live.AnalyzerInvocations {
		t.Errorf("invocations = %d, want %d", rep.AnalyzerInvocations, 2*live.AnalyzerInvocations)
	}
	if rep.SimulatedRefs != 2*live.SimulatedRefs {
		t.Errorf("refs = %d, want %d", rep.SimulatedRefs, 2*live.SimulatedRefs)
	}
	if rep.ProfilesCollected != 2*live.ProfilesCollected {
		t.Errorf("profiles = %d, want %d", rep.ProfilesCollected, 2*live.ProfilesCollected)
	}
}

// TestReplayConsumeDecodeError: a corrupt stream surfaces the decode
// error from Consume; frames before the corruption stay applied.
func TestReplayConsumeDecodeError(t *testing.T) {
	prog := strideWorkload(t, 300_000)
	_, _, stream := emitUMI(t, prog, testConfig())
	cut := stream[:len(stream)/2]
	dec := wire.NewDecoder(bytes.NewReader(cut))
	h, err := dec.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	cfg, err := ConfigFromWireHeader(h)
	if err != nil {
		t.Fatalf("ConfigFromWireHeader: %v", err)
	}
	r := NewReplay(cfg)
	if _, err := r.Consume(dec); err == nil {
		t.Fatal("Consume accepted a truncated stream")
	}
}

// TestReplayResumeMatchesWhole: a replay cut off mid-stream keeps what it
// applied, and resuming it from Progress on the re-sent stream reproduces
// the uninterrupted replay's report and history — its trailer and
// history merged once — inline and through the sequencer. A wrong
// checksum is refused with nothing applied.
func TestReplayResumeMatchesWhole(t *testing.T) {
	_, _, stream := emitUMI(t, strideWorkload(t, 600_000), testConfig())
	for _, workers := range []int{0, 2} {
		whole, wholeReplay := replayStream(t, stream, workers)
		dec := wire.NewDecoder(bytes.NewReader(stream[:len(stream)/2]))
		h, err := dec.Header()
		if err != nil {
			t.Fatalf("decode header: %v", err)
		}
		cfg, err := ConfigFromWireHeader(h)
		if err != nil {
			t.Fatalf("ConfigFromWireHeader: %v", err)
		}
		cfg.AnalyzerWorkers = workers
		r := NewReplay(cfg)
		if _, err := r.Consume(dec); err == nil {
			t.Fatal("Consume accepted a truncated stream")
		}
		frames, chk := r.Progress()
		if frames == 0 {
			t.Fatal("the stream's first half applied no invocation")
		}
		resend := func() *wire.Decoder {
			d := wire.NewDecoder(bytes.NewReader(stream))
			if _, err := d.Header(); err != nil {
				t.Fatalf("decode header: %v", err)
			}
			return d
		}
		r.Sync()
		refs := r.Metrics().Snapshot().Counter("umi.analyzer.refs")
		if _, err := r.ConsumeResume(resend(), frames, chk^1); !errors.Is(err, ErrResume) {
			t.Fatalf("resume with a wrong checksum: %v, want ErrResume", err)
		}
		r.Sync()
		if got := r.Metrics().Snapshot().Counter("umi.analyzer.refs"); got != refs {
			t.Errorf("workers=%d: a refused resume replayed %d refs", workers, got-refs)
		}
		if _, err := r.ConsumeResume(resend(), frames, chk); err != nil {
			t.Fatalf("workers=%d: ConsumeResume: %v", workers, err)
		}
		got := r.Report()
		if !reflect.DeepEqual(r.History(), wholeReplay.History()) {
			t.Errorf("workers=%d: resumed history differs from the whole replay's", workers)
		}
		r.Close()
		if reportKey(got) != reportKey(whole) || !reflect.DeepEqual(got.Strides, whole.Strides) ||
			!reflect.DeepEqual(got.OpStats, whole.OpStats) {
			t.Errorf("workers=%d: resumed replay differs from the whole one:\n got  %s\n want %s",
				workers, reportKey(got), reportKey(whole))
		}
	}
}

// TestReplayRejectsHistoryCapMismatch: a history section whose cap
// disagrees with the cap the header's HistoryWindows implies is a
// malformed stream — a decode error, with nothing of the shard's trailer
// or history merged.
func TestReplayRejectsHistoryCapMismatch(t *testing.T) {
	_, _, stream := emitUMI(t, strideWorkload(t, 300_000), testConfig())
	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	// Re-encode the recording under a header declaring a different ring
	// depth; its history section still records the capture's cap.
	h.HistoryWindows = 32
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.Header(h)
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		switch rec := rec.(type) {
		case *wire.Invocation:
			enc.Invocation(rec.Cycles, rec.Profiles)
		case *wire.Profile:
			enc.Profile(*rec)
		case *wire.HistoryMeta:
			enc.History(*rec)
		case *wire.Window:
			enc.Window(*rec)
		case *wire.Trailer:
			enc.Trailer(*rec)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("encoder flush: %v", err)
	}
	cfg, err := ConfigFromWireHeader(h)
	if err != nil {
		t.Fatalf("ConfigFromWireHeader: %v", err)
	}
	r := NewReplay(cfg)
	d := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	if _, err := d.Header(); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if _, err := r.Consume(d); err == nil || !strings.Contains(err.Error(), "history meta cap 64") {
		t.Fatalf("Consume: %v, want a history cap mismatch", err)
	}
	if tr, hv := r.Trailer(), r.History(); tr.InstrumentEvents != 0 || len(tr.TracePCs) != 0 || hv.Total != 0 {
		t.Errorf("a malformed shard merged its trailer (%d events, %d traces) or history (%d windows)",
			tr.InstrumentEvents, len(tr.TracePCs), hv.Total)
	}
}

// TestConfigFromWireHeaderRejections: malformed headers must be rejected
// before a replay session is built from them.
func TestConfigFromWireHeaderRejections(t *testing.T) {
	cfg := testConfig()
	good := WireHeader(&cfg, "w", "m")
	cases := []struct {
		name   string
		mutate func(*wire.Header)
	}{
		{"zero cache size", func(h *wire.Header) { h.CacheSize = 0 }},
		{"huge cache size", func(h *wire.Header) { h.CacheSize = 1 << 40 }},
		{"assoc too wide", func(h *wire.Header) { h.CacheAssoc = 128 }},
		{"line too long", func(h *wire.Header) { h.CacheLine = 1 << 20 }},
		{"non-power-of-two line", func(h *wire.Header) { h.CacheLine = 48 }},
		{"bad policy", func(h *wire.Header) { h.CachePolicy = 200 }},
		{"warmup out of range", func(h *wire.Header) { h.WarmupRows = wire.MaxProfileRows + 1 }},
		{"history out of range", func(h *wire.Header) { h.HistoryWindows = wire.MaxHistoryWindows + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := good
			tc.mutate(&h)
			if _, err := ConfigFromWireHeader(h); err == nil {
				t.Errorf("header %+v accepted", h)
			}
		})
	}
	if _, err := ConfigFromWireHeader(good); err != nil {
		t.Errorf("valid header rejected: %v", err)
	}
	// Negative history disables capture, normalized to -1.
	neg := good
	neg.HistoryWindows = -7
	c, err := ConfigFromWireHeader(neg)
	if err != nil {
		t.Fatalf("negative history rejected: %v", err)
	}
	if c.HistoryWindows != -1 {
		t.Errorf("HistoryWindows = %d, want -1", c.HistoryWindows)
	}
}

// TestReplayConfigKey: shard-compat keys ignore the informational names
// but pin every analyzer-relevant field.
func TestReplayConfigKey(t *testing.T) {
	cfg := testConfig()
	a := WireHeader(&cfg, "w1", "m1")
	b := WireHeader(&cfg, "w2", "m2")
	if ReplayConfigKey(a) != ReplayConfigKey(b) {
		t.Error("keys differ on informational fields")
	}
	c := a
	c.CacheSize *= 2
	if ReplayConfigKey(a) == ReplayConfigKey(c) {
		t.Error("keys match across cache geometries")
	}
	d := a
	d.PhaseMissDelta += 0.001
	if ReplayConfigKey(a) == ReplayConfigKey(d) {
		t.Error("keys match across phase thresholds")
	}
}
