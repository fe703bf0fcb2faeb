package introspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"umi/internal/metrics"
)

// emitStream records one session config's umi-profile/v1 stream and
// returns it with the live result.
func emitStream(t *testing.T, cfg SessionConfig) (*RunResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	res, err := EmitStandalone(cfg, &buf)
	if err != nil {
		t.Fatalf("EmitStandalone: %v", err)
	}
	return res, buf.Bytes()
}

// ingestConfigJSON is the POST /sessions body for an ingest session.
func ingestConfigJSON(workers int) []byte {
	return []byte(fmt.Sprintf(`{"ingest": true, "workers": %d}`, workers))
}

// createIngestSession creates an ingest session and returns its id.
func createIngestSession(t *testing.T, base string, workers int) string {
	t.Helper()
	code, data := doReq(t, http.MethodPost, base+"/sessions", ingestConfigJSON(workers))
	if code != http.StatusCreated {
		t.Fatalf("create ingest session: status %d, body %s", code, data)
	}
	var inf sessionInfo
	if err := json.Unmarshal(data, &inf); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return inf.ID
}

// TestIngestByteIdentity is the wire format's end-to-end contract through
// the HTTP surface: a stream recorded by EmitStandalone and POSTed to an
// ingest session produces a response body byte-identical to the capture
// process's RunResult — whatever the capture-side pipeline width and
// whatever the ingest-side one.
func TestIngestByteIdentity(t *testing.T) {
	for _, emitWorkers := range []int{0, 4} {
		cfg := traceSessionConfig(1, emitWorkers)
		live, stream := emitStream(t, cfg)
		want := resultBytes(t, live)

		// Emission must not perturb the run: the emitting result matches
		// the silent standalone one.
		cfgSilent := cfg
		silent, err := RunStandalone(cfgSilent)
		if err != nil {
			t.Fatalf("RunStandalone: %v", err)
		}
		if !bytes.Equal(want, resultBytes(t, silent)) {
			t.Fatalf("emitWorkers=%d: emission perturbed the run", emitWorkers)
		}

		for _, ingestWorkers := range []int{0, 4} {
			t.Run(fmt.Sprintf("emit=%d/ingest=%d", emitWorkers, ingestWorkers), func(t *testing.T) {
				_, base := startDaemon(t, DaemonConfig{})
				id := createIngestSession(t, base, ingestWorkers)
				code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream)
				if code != http.StatusOK {
					t.Fatalf("ingest: status %d, body %s", code, body)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("ingested result diverges from capture result\n want %d bytes\n got  %d bytes\n%s", len(want), len(body), body)
				}
				// The report endpoint serves the same merged result.
				code, rep := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil)
				if code != http.StatusOK || !bytes.Equal(rep, want) {
					t.Errorf("report after ingest: status %d, diverges=%v", code, !bytes.Equal(rep, want))
				}
			})
		}
	}
}

// TestIngestShardMerge posts the same stream twice: the session must
// merge the shards into one logical run — analyzer totals double, set
// cardinalities stay (identical shards), hardware counts sum.
func TestIngestShardMerge(t *testing.T) {
	live, stream := emitStream(t, traceSessionConfig(2, 0))
	_, base := startDaemon(t, DaemonConfig{})
	id := createIngestSession(t, base, 0)
	for shard := 0; shard < 2; shard++ {
		code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream)
		if code != http.StatusOK {
			t.Fatalf("shard %d: status %d, body %s", shard, code, body)
		}
	}
	code, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil)
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	var merged RunResult
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatalf("report: %v", err)
	}
	if got, want := merged.Report.AnalyzerInvocations, 2*live.Report.AnalyzerInvocations; got != want {
		t.Errorf("invocations = %d, want %d", got, want)
	}
	if got, want := merged.Report.SimulatedRefs, 2*live.Report.SimulatedRefs; got != want {
		t.Errorf("refs = %d, want %d", got, want)
	}
	if got, want := merged.Cycles, 2*live.Cycles; got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
	if got, want := merged.Instrs, 2*live.Instrs; got != want {
		t.Errorf("instrs = %d, want %d", got, want)
	}
	// Identical shards carry identical PC sets: union cardinality stays.
	if got, want := merged.Report.TracesSeen, live.Report.TracesSeen; got != want {
		t.Errorf("traces = %d, want %d", got, want)
	}
	if got, want := merged.Report.CandidateOps, live.Report.CandidateOps; got != want {
		t.Errorf("candidates = %d, want %d", got, want)
	}
	// Raw hardware counts summed; the ratio recomputes to the same value.
	if merged.HWMissRatio != live.HWMissRatio {
		t.Errorf("hw miss ratio = %v, want %v", merged.HWMissRatio, live.HWMissRatio)
	}
}

// TestIngestConfigMismatch: a shard recorded under a different analyzer
// configuration must be refused with 409 and must NOT poison the session
// — nothing from it was applied.
func TestIngestConfigMismatch(t *testing.T) {
	_, streamA := emitStream(t, traceSessionConfig(0, 0))
	cfgB := traceSessionConfig(0, 0)
	cfgB.HistoryWindows = 7 // different analyzer-relevant config
	_, streamB := emitStream(t, cfgB)

	_, base := startDaemon(t, DaemonConfig{})
	id := createIngestSession(t, base, 0)
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", streamA); code != http.StatusOK {
		t.Fatalf("first shard: status %d, body %s", code, body)
	}
	code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", streamB)
	if code != http.StatusConflict {
		t.Fatalf("mismatched shard: status %d, want 409; body %s", code, body)
	}
	// The session survives and still accepts matching shards.
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", streamA); code != http.StatusOK {
		t.Errorf("post-mismatch shard: status %d, body %s", code, body)
	}
}

// TestIngestDecodeErrorPoisons: a stream that fails mid-decode leaves
// partially-applied analysis, so the session flips to failed, refuses
// further shards, and the decode-error counter ticks.
func TestIngestDecodeErrorPoisons(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	d, base := startDaemon(t, DaemonConfig{})
	id := createIngestSession(t, base, 0)

	cut := stream[:len(stream)*3/4]
	code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", cut)
	if code != http.StatusBadRequest {
		t.Fatalf("truncated stream: status %d, want 400; body %s", code, body)
	}
	if got := d.ingest.DecodeErrors.Load(); got != 1 {
		t.Errorf("decode_errors = %d, want 1", got)
	}
	code, body = doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream)
	if code != http.StatusConflict {
		t.Errorf("shard into poisoned session: status %d, want 409; body %s", code, body)
	}
}

// TestReplayStreamMatchesCapture: ReplayStream, the `umiprof -ingest`
// path, reproduces the capture process's RunResult byte for byte inline
// and on a sequencer, and names the stage a bad stream fails in.
func TestReplayStreamMatchesCapture(t *testing.T) {
	live, stream := emitStream(t, traceSessionConfig(1, 0))
	want := resultBytes(t, live)
	for _, workers := range []int{0, 2, 64} {
		res, err := ReplayStream(bytes.NewReader(stream), workers)
		if err != nil {
			t.Fatalf("workers=%d: ReplayStream: %v", workers, err)
		}
		if !bytes.Equal(resultBytes(t, res), want) {
			t.Errorf("workers=%d: replayed result differs from the capture's", workers)
		}
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"no header": {[]byte("not a umi stream"), "stream header"},
		"truncated": {stream[:len(stream)/2], "stream decode"},
	} {
		if _, err := ReplayStream(bytes.NewReader(tc.body), 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReplayStream error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestIngestDeleteReleasesReplay: deleting an ingest session closes its
// replay, so create/ingest/delete cycles at workers 2 leave no sequencer
// goroutine behind — also when the delete lands while the ingest is
// still reading its stream, and when an ingest races the delete.
func TestIngestDeleteReleasesReplay(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(1, 0))
	d, base := startDaemon(t, DaemonConfig{})
	del := func(id string) {
		t.Helper()
		if code, body := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNoContent {
			t.Fatalf("delete: status %d, body %s", code, body)
		}
	}
	cycle := func() {
		t.Helper()
		id := createIngestSession(t, base, 2)
		if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream); code != http.StatusOK {
			t.Fatalf("ingest: status %d, body %s", code, body)
		}
		del(id)
	}
	// Idle keep-alive connections hold goroutines on both ends; counts are
	// taken with none open.
	goroutines := func() int {
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine()
	}
	// settled waits for the daemon to return to the baseline goroutine
	// count.
	settled := func(what string, baseG int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for goroutines() > baseG && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := goroutines(); g > baseG {
			t.Errorf("%s: %d goroutines, baseline %d", what, g, baseG)
		}
	}

	cycle() // warm the server's connection handling
	baseG := goroutines()
	for stable := 0; stable < 5; { // let closed connections wind down
		time.Sleep(10 * time.Millisecond)
		if g := goroutines(); g < baseG {
			baseG, stable = g, 0
		} else {
			stable++
		}
	}
	const n = 8
	for i := 0; i < n; i++ {
		cycle()
	}
	settled(fmt.Sprintf("after %d create/ingest/delete cycles", n), baseG)

	// Delete mid-ingest: the stream's header is in (the replay and its
	// sequencer exist) when the delete arrives; the replay closes once
	// the ingest finishes reading.
	id := createIngestSession(t, base, 2)
	s, _ := d.lookup(id)
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/sessions/"+id+"/ingest", "application/octet-stream", pr)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	half := len(stream) / 2
	if _, err := pw.Write(stream[:half]); err != nil {
		t.Fatalf("write stream head: %v", err)
	}
	replaying := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.ing != nil && s.ing.replay != nil
	}
	for deadline := time.Now().Add(5 * time.Second); !replaying(); {
		if time.Now().After(deadline) {
			t.Fatal("the ingest never started its replay")
		}
		time.Sleep(time.Millisecond)
	}
	del(id)
	if _, err := pw.Write(stream[half:]); err != nil {
		t.Fatalf("write stream tail: %v", err)
	}
	pw.Close()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("ingest deleted mid-stream: status %d", code)
	}
	settled("after a delete mid-ingest", baseG)

	// An ingest that looked the session up just before the delete must
	// not revive it: its replay is already closed.
	id = createIngestSession(t, base, 2)
	s, _ = d.lookup(id)
	del(id)
	d.mu.Lock()
	d.sessions[id] = s // as the racing handler's lookup saw it
	d.mu.Unlock()
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream); code != http.StatusNotFound {
		t.Errorf("ingest into a deleted session: status %d, body %s", code, body)
	}
	settled("after an ingest raced a delete", baseG)
}

// TestIngestRejectsRunAndGuests: the run/ingest surfaces are exclusive —
// an ingest session refuses /run, a guest session refuses /ingest, and an
// ingest config with guest knobs is rejected at creation.
func TestIngestRejectsRunAndGuests(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	_, base := startDaemon(t, DaemonConfig{})

	ingID := createIngestSession(t, base, 0)
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+ingID+"/run", nil); code != http.StatusConflict {
		t.Errorf("run on ingest session: status %d, want 409; body %s", code, body)
	}

	guestID := createSession(t, base, traceSessionConfig(0, 0))
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+guestID+"/ingest", stream); code != http.StatusConflict {
		t.Errorf("ingest on guest session: status %d, want 409; body %s", code, body)
	}

	bad := []byte(`{"ingest": true, "workload": "stride"}`)
	if code, _ := doReq(t, http.MethodPost, base+"/sessions", bad); code != http.StatusBadRequest {
		t.Errorf("ingest config with workload: status %d, want 400", code)
	}
}

// TestIngestMetricsExposed: the fleet Prometheus exposition carries the
// daemon's ingest counters (under the reserved "ingest" session label)
// and the per-frame latency histogram.
func TestIngestMetricsExposed(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	_, base := startDaemon(t, DaemonConfig{})
	id := createIngestSession(t, base, 0)
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream); code != http.StatusOK {
		t.Fatalf("ingest: status %d, body %s", code, body)
	}
	code, body := doReq(t, http.MethodGet, base+"/metrics/prom", nil)
	if code != http.StatusOK {
		t.Fatalf("prom: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`umid_ingest_streams{session="ingest"} 1`,
		`umid_ingest_frames{session="ingest"}`,
		`umid_ingest_bytes{session="ingest"}`,
		`umid_ingest_decode_errors{session="ingest"} 0`,
		`umid_ingest_frame_latency_ns_count{session="ingest"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The ingest session itself serves its replayer's registry.
	code, snap := doReq(t, http.MethodGet, base+"/sessions/"+id+"/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(snap), "umi.analyzer.invocations") {
		t.Errorf("ingest session metrics: status %d, body %.120s", code, snap)
	}
}

// TestIngestMetricsParity: an ingest session reports the analyzer's views
// at every width, as a guest session does — one latency observation per
// invocation, the analyze wall, the minisim.* mirrors — and no recycle
// queue, since a replay never takes profile buffers back.
func TestIngestMetricsParity(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, base := startDaemon(t, DaemonConfig{})
			id := createIngestSession(t, base, workers)
			if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/ingest", stream); code != http.StatusOK {
				t.Fatalf("ingest: status %d, body %s", code, body)
			}
			_, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/metrics", nil)
			var snap metrics.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("metrics is not a Snapshot: %v\n%s", err, body)
			}
			inv := snap.Counter("umi.analyzer.invocations")
			if inv == 0 {
				t.Fatal("the replay ran no invocation")
			}
			if n := snap.Histogram("umi.analyzer.latency_ns").Count; n != inv {
				t.Errorf("latency observations = %d, want one per invocation (%d)", n, inv)
			}
			if snap.Counter("umi.stage.analyze.wall_ns") == 0 {
				t.Error("umi.stage.analyze.wall_ns = 0")
			}
			if snap.Counter("minisim.accesses") == 0 {
				t.Error("minisim.accesses = 0")
			}
			if q := snap.Gauge("umi.pool.recycle_queue"); q.Value != 0 || q.Max != 0 {
				t.Errorf("umi.pool.recycle_queue = %d (max %d), want 0", q.Value, q.Max)
			}
		})
	}
}

// TestIngestFleetRenders: completed ingest sessions join the fleet
// delinquent/phase aggregations alongside guest sessions.
func TestIngestFleetRenders(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	_, base := startDaemon(t, DaemonConfig{})

	guestID := createSession(t, base, traceSessionConfig(1, 0))
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+guestID+"/run", nil); code != http.StatusOK {
		t.Fatalf("guest run: status %d, body %s", code, body)
	}
	ingID := createIngestSession(t, base, 0)
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+ingID+"/ingest", stream); code != http.StatusOK {
		t.Fatalf("ingest: status %d, body %s", code, body)
	}
	code, body := doReq(t, http.MethodGet, base+"/fleet/delinquent", nil)
	if code != http.StatusOK {
		t.Fatalf("fleet: status %d", code)
	}
	text := string(body)
	if !strings.Contains(text, ingID) || !strings.Contains(text, "ingest:") {
		t.Errorf("fleet render missing the ingested session:\n%s", text)
	}
	if !strings.Contains(text, guestID) {
		t.Errorf("fleet render missing the guest session:\n%s", text)
	}
}

// TestDaemonRouteContentTypes asserts the Content-Type of every daemon
// route, including responses that commit a non-200 status: a JSON body
// must always arrive as application/json, text renders as text/plain, and
// the Prometheus exposition as its versioned type.
func TestDaemonRouteContentTypes(t *testing.T) {
	_, stream := emitStream(t, traceSessionConfig(0, 0))
	_, base := startDaemon(t, DaemonConfig{})

	guestID := createSession(t, base, traceSessionConfig(0, 0))
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+guestID+"/run", nil); code != http.StatusOK {
		t.Fatalf("guest run: status %d, body %s", code, body)
	}
	ingID := createIngestSession(t, base, 0)

	const jsonCT = "application/json"
	const textCT = "text/plain; charset=utf-8"
	cases := []struct {
		name     string
		method   string
		path     string
		body     []byte
		wantCode int
		wantCT   string
	}{
		{"index", http.MethodGet, "/", nil, http.StatusOK, textCT},
		{"create", http.MethodPost, "/sessions", []byte(`{"workload": "mst"}`), http.StatusCreated, jsonCT},
		{"list", http.MethodGet, "/sessions", nil, http.StatusOK, jsonCT},
		{"ingest", http.MethodPost, "/sessions/" + ingID + "/ingest", stream, http.StatusOK, jsonCT},
		{"prom", http.MethodGet, "/metrics/prom", nil, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8"},
		{"fleet-delinquent", http.MethodGet, "/fleet/delinquent", nil, http.StatusOK, textCT},
		{"fleet-phases", http.MethodGet, "/fleet/phases", nil, http.StatusOK, textCT},
		{"pprof", http.MethodGet, "/debug/pprof/", nil, http.StatusOK, "text/html; charset=utf-8"},
		{"error", http.MethodGet, "/sessions/nosuch/report", nil, http.StatusNotFound, textCT},
	}
	// Every session view, for the guest session (subtests named by the
	// view) and for the ingest session, which has no guest and so serves
	// empty overhead and events payloads under the same types.
	for _, v := range sessionViews {
		ct := jsonCT
		if v == "events/timeline" {
			ct = textCT
		}
		for _, sess := range []struct{ prefix, id string }{{"", guestID}, {"ingest-", ingID}} {
			cases = append(cases, struct {
				name     string
				method   string
				path     string
				body     []byte
				wantCode int
				wantCT   string
			}{sess.prefix + strings.ReplaceAll(v, "/", "-"), http.MethodGet,
				"/sessions/" + sess.id + "/" + v, nil, http.StatusOK, ct})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if got := resp.Header.Get("Content-Type"); got != tc.wantCT {
				t.Errorf("Content-Type = %q, want %q", got, tc.wantCT)
			}
		})
	}
	// DELETE returns 204 with no body and therefore no Content-Type.
	req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+guestID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete status = %d, want 204", resp.StatusCode)
	}
}
