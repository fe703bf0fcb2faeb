package introspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"umi/internal/wire"
)

// The ingest fault matrix: every classified failure mode of
// POST /sessions/{id}/ingest driven through the HTTP surface, at each
// analyzer width — oversized bodies, mid-stream corruption, duplicate
// shard uploads, and live-tail cuts with resume.

// transcodeV2 re-encodes a recorded v1 stream as umi-profile/v2.
func transcodeV2(t *testing.T, stream []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Transcode(&buf, bytes.NewReader(stream), wire.Version2); err != nil {
		t.Fatalf("transcode: %v", err)
	}
	return buf.Bytes()
}

// postStream is doReq with the ingest extras: optional ?live=1, optional
// X-Umi-Shard-* manifest headers, and optional chunked transfer (no
// declared Content-Length — how a live tail arrives).
func postStream(t *testing.T, url string, stream []byte, man *wire.Manifest, chunked bool) (int, []byte) {
	t.Helper()
	var body io.Reader = bytes.NewReader(stream)
	if chunked {
		body = struct{ io.Reader }{body} // hide the length from net/http
	}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if man != nil {
		req.Header.Set("X-Umi-Shard-Id", strconv.FormatUint(man.ShardID, 10))
		req.Header.Set("X-Umi-Shard-Frames", strconv.FormatUint(man.Frames, 10))
		req.Header.Set("X-Umi-Shard-Checksum", strconv.FormatUint(man.Checksum, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s read: %v", url, err)
	}
	return resp.StatusCode, data
}

// sessionListing fetches one session's info from GET /sessions.
func sessionListing(t *testing.T, base, id string) sessionInfo {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var infos []sessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, inf := range infos {
		if inf.ID == id {
			return inf
		}
	}
	t.Fatalf("session %s not in listing", id)
	return sessionInfo{}
}

func TestIngestFaultMatrix(t *testing.T) {
	live, v1 := emitStream(t, traceSessionConfig(3, 0))
	v2 := transcodeV2(t, v1)
	want := resultBytes(t, live)
	man, ok, err := wire.ScanManifest(bytes.NewReader(v2))
	if err != nil || !ok {
		t.Fatalf("ScanManifest: ok=%v err=%v", ok, err)
	}

	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {

			// Oversized: a body past the cap is 413 — whether declared up
			// front by Content-Length or discovered mid-read on a chunked
			// body — counts as oversized (not a decode error), and leaves
			// the session healthy for a corrected retry.
			t.Run("oversized-then-retry", func(t *testing.T) {
				d, base := startDaemon(t, DaemonConfig{})
				id := createIngestSession(t, base, workers)
				url := base + "/sessions/" + id + "/ingest"

				old := MaxStreamBytes
				MaxStreamBytes = 1024
				defer func() { MaxStreamBytes = old }()
				if int64(len(v2)) <= MaxStreamBytes {
					t.Fatalf("stream of %d bytes does not exceed the lowered cap", len(v2))
				}
				if code, body := postStream(t, url, v2, nil, false); code != http.StatusRequestEntityTooLarge {
					t.Fatalf("declared oversized: status %d, want 413; body %s", code, body)
				}
				if code, body := postStream(t, url, v2, nil, true); code != http.StatusRequestEntityTooLarge {
					t.Fatalf("chunked oversized: status %d, want 413; body %s", code, body)
				}
				if got := d.ingest.Oversized.Load(); got != 2 {
					t.Errorf("oversized counter = %d, want 2", got)
				}
				if got := d.ingest.DecodeErrors.Load(); got != 0 {
					t.Errorf("decode_errors = %d, want 0 (oversized counts apart)", got)
				}

				MaxStreamBytes = old
				code, body := postStream(t, url, v2, nil, false)
				if code != http.StatusOK {
					t.Fatalf("retry after oversized: status %d, body %s", code, body)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("retried ingest diverges from capture result")
				}
			})

			// Corruption mid-stream: part of the shard was analyzed before
			// the fault surfaced, so the session poisons and refuses the
			// next shard with 409.
			t.Run("corrupt-poisons", func(t *testing.T) {
				d, base := startDaemon(t, DaemonConfig{})
				id := createIngestSession(t, base, workers)
				url := base + "/sessions/" + id + "/ingest"

				bad := bytes.Clone(v2)
				bad[len(bad)*2/3] ^= 0xff
				code, body := postStream(t, url, bad, nil, false)
				if code != http.StatusBadRequest {
					t.Fatalf("corrupt stream: status %d, want 400; body %s", code, body)
				}
				if got := d.ingest.DecodeErrors.Load(); got != 1 {
					t.Errorf("decode_errors = %d, want 1", got)
				}
				if code, body := postStream(t, url, v2, nil, false); code != http.StatusConflict {
					t.Errorf("shard into poisoned session: status %d, want 409; body %s", code, body)
				}
			})

			// Duplicate upload: a shard declaring an already-applied
			// manifest is an idempotent no-op; the same shard ID with
			// different content is a conflict.
			t.Run("duplicate-idempotent", func(t *testing.T) {
				d, base := startDaemon(t, DaemonConfig{})
				id := createIngestSession(t, base, workers)
				url := base + "/sessions/" + id + "/ingest"

				code, first := postStream(t, url, v2, &man, false)
				if code != http.StatusOK {
					t.Fatalf("first shard: status %d, body %s", code, first)
				}
				code, second := postStream(t, url, v2, &man, false)
				if code != http.StatusOK {
					t.Fatalf("duplicate shard: status %d, body %s", code, second)
				}
				if !bytes.Equal(first, second) {
					t.Errorf("duplicate response diverges from the first")
				}
				if got := d.ingest.Duplicates.Load(); got != 1 {
					t.Errorf("duplicate_shards = %d, want 1", got)
				}
				// Applied exactly once: the merged report is the
				// single-shard (capture-identical) result.
				if code, rep := doReq(t, http.MethodGet, url[:len(url)-len("ingest")]+"report", nil); code != http.StatusOK || !bytes.Equal(rep, want) {
					t.Errorf("report after duplicate: status %d, diverges=%v", code, !bytes.Equal(rep, want))
				}
				forged := man
				forged.Frames++
				if code, body := postStream(t, url, v2, &forged, false); code != http.StatusConflict {
					t.Errorf("same shard ID, different content: status %d, want 409; body %s", code, body)
				}
			})

			// Live cut and resume: a ?live=1 upload that dies mid-stream
			// parks the session resumable at the last applied invocation
			// boundary; a retry that dies even earlier must not regress the
			// resume point; re-sending the whole stream completes the
			// session with the capture-identical result.
			t.Run("live-cut-resume", func(t *testing.T) {
				d, base := startDaemon(t, DaemonConfig{})
				id := createIngestSession(t, base, workers)
				url := base + "/sessions/" + id + "/ingest?live=1"

				code, body := postStream(t, url, v2[:len(v2)*2/3], nil, true)
				if code != http.StatusConflict || !strings.Contains(string(body), "resumable") {
					t.Fatalf("live cut: status %d, want 409 resumable; body %s", code, body)
				}
				inf := sessionListing(t, base, id)
				if inf.State != "resumable" || inf.Resume == nil {
					t.Fatalf("after cut: state %q resume %+v, want resumable with a resume point", inf.State, inf.Resume)
				}
				mark := *inf.Resume

				// A retry that dies before the previous cut keeps the
				// further-along resume point.
				if code, _ := postStream(t, url, v2[:len(v2)/4], nil, true); code != http.StatusConflict {
					t.Fatalf("shorter retry: status %d, want 409", code)
				}
				inf = sessionListing(t, base, id)
				if inf.State != "resumable" || inf.Resume == nil || inf.Resume.Frames < mark.Frames {
					t.Fatalf("after shorter retry: state %q resume %+v, want >= frame %d", inf.State, inf.Resume, mark.Frames)
				}

				code, body = postStream(t, url, v2, nil, true)
				if code != http.StatusOK {
					t.Fatalf("full re-send: status %d, body %s", code, body)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("resumed ingest diverges from capture result")
				}
				if mark.Frames > 0 {
					if got := d.ingest.Resumed.Load(); got != 1 {
						t.Errorf("resumed_streams = %d, want 1", got)
					}
				}
				if inf = sessionListing(t, base, id); inf.State != "done" || inf.Resume != nil {
					t.Errorf("after resume: state %q resume %+v, want done with no resume point", inf.State, inf.Resume)
				}
			})
		})
	}
}

// startFlakyProxy fronts upstream with a TCP proxy that kills the first
// connection to carry killAfter client-side bytes — both directions
// severed mid-upload, the way a live tail loses its daemon. Connections
// after the kill pass through untouched.
func startFlakyProxy(t *testing.T, upstream string, killAfter int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		conns  []net.Conn
		killed bool
	)
	track := func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				continue
			}
			track(c)
			track(up)
			go func() {
				mu.Lock()
				armed := !killed
				mu.Unlock()
				done := make(chan struct{}, 2)
				go func() {
					defer func() { done <- struct{}{} }()
					if !armed {
						io.Copy(up, c)
						return
					}
					if n, err := io.CopyN(up, c, killAfter); err != nil || n < killAfter {
						return // connection ended below the fuse; pass
					}
					mu.Lock()
					killed = true
					mu.Unlock()
				}()
				go func() {
					io.Copy(c, up)
					done <- struct{}{}
				}()
				<-done
				c.Close()
				up.Close()
				<-done
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// TestLiveShipperKillReconnect is the client half end-to-end: a
// LiveShipper streaming a recording into a daemon through a proxy that
// kills the connection mid-upload must reconnect, resume, come back with
// the capture-identical merged result and delete its session — whatever
// workers value the capturing session's config carries, since the key
// is accepted and ignored.
func TestLiveShipperKillReconnect(t *testing.T) {
	live, _ := emitStream(t, traceSessionConfig(1, 0))
	want := resultBytes(t, live)

	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, v1 := emitStream(t, traceSessionConfig(1, workers))
			d, base := startDaemon(t, DaemonConfig{})
			proxy := startFlakyProxy(t, strings.TrimPrefix(base, "http://"), 2000)

			sh, err := NewLiveShipper(proxy, LiveConfig{
				MaxAttempts: 6,
				RetryDelay:  20 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("NewLiveShipper: %v", err)
			}
			enc := wire.NewEncoderV2(sh)
			enc.SetFrameHook(sh.FrameEnd)
			if err := wire.TranscodeInto(enc, bytes.NewReader(v1)); err != nil {
				t.Fatalf("TranscodeInto: %v", err)
			}
			res, err := sh.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			if !bytes.Equal(resultBytes(t, res), want) {
				t.Errorf("live-shipped result diverges from capture result")
			}
			if got := d.SessionCount(); got != 0 {
				t.Errorf("SessionCount = %d after Close, want 0 (session gone)", got)
			}
			if got := d.ingest.Streams.Load(); got != 1 {
				t.Errorf("streams = %d, want 1", got)
			}
			// The proxy cut the first upload mid-stream, after at least
			// one applied invocation, and the re-send resumed it.
			if got := d.ingest.Resumed.Load(); got != 1 {
				t.Errorf("resumed streams = %d, want 1", got)
			}
		})
	}
}

// TestLiveShipperReleasesSession pins that a live-tailed run gives its
// session slot back: two LiveShippers in a row against a daemon that
// admits one session both return the capture-identical result, and the
// daemon holds no session after either Close.
func TestLiveShipperReleasesSession(t *testing.T) {
	live, v1 := emitStream(t, traceSessionConfig(1, 0))
	want := resultBytes(t, live)
	d, base := startDaemon(t, DaemonConfig{MaxSessions: 1})
	for i := 1; i <= 2; i++ {
		sh, err := NewLiveShipper(base, LiveConfig{})
		if err != nil {
			t.Fatalf("shipper %d: NewLiveShipper: %v", i, err)
		}
		enc := wire.NewEncoderV2(sh)
		enc.SetFrameHook(sh.FrameEnd)
		if err := wire.TranscodeInto(enc, bytes.NewReader(v1)); err != nil {
			t.Fatalf("shipper %d: TranscodeInto: %v", i, err)
		}
		res, err := sh.Close()
		if err != nil {
			t.Fatalf("shipper %d: Close: %v", i, err)
		}
		if !bytes.Equal(resultBytes(t, res), want) {
			t.Errorf("shipper %d: live-shipped result diverges from capture result", i)
		}
		if got := d.SessionCount(); got != 0 {
			t.Errorf("shipper %d: SessionCount = %d after Close, want 0", i, got)
		}
	}
}
