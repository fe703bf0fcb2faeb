package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"umi/internal/introspect"
)

// syncBuffer is an io.Writer safe to read while the daemon goroutine
// writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/`)

// startDaemon boots the real CLI path in-process and returns the base
// URL, the stderr buffer, the stop channel, and the exit-status channel.
func startDaemon(t *testing.T, args ...string) (string, *syncBuffer, chan struct{}, <-chan int) {
	t.Helper()
	stderr := &syncBuffer{}
	stop := make(chan struct{})
	exit := make(chan int, 1)
	go func() { exit <- run(args, io.Discard, stderr, stop) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			return "http://" + m[1], stderr, stop, exit
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// traceBody builds a session-config JSON body for a deterministic strided
// trace stream.
func traceBody(t *testing.T, n int, stride uint64, reps, workers int, maxInstrs uint64) []byte {
	t.Helper()
	cfg := introspect.SessionConfig{
		Trace:     make([]uint64, n),
		Reps:      reps,
		Workers:   workers,
		MaxInstrs: maxInstrs,
	}
	for i := range cfg.Trace {
		cfg.Trace[i] = 0x2000_0000 + uint64(i)*stride
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func createSession(t *testing.T, base string, body []byte) string {
	t.Helper()
	code, data := doReq(t, http.MethodPost, base+"/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", code, data)
	}
	var inf struct{ ID string }
	if err := json.Unmarshal(data, &inf); err != nil {
		t.Fatal(err)
	}
	return inf.ID
}

// TestDaemonE2E drives the full session lifecycle over real HTTP: create
// → run → scrape report/history/metrics/prometheus → fleet views →
// delete, checking the run output is byte-identical to the same config
// run standalone.
func TestDaemonE2E(t *testing.T) {
	base, _, stop, exit := startDaemon(t, "-max-sessions", "8")
	defer func() {
		close(stop)
		select {
		case code := <-exit:
			if code != 0 {
				t.Errorf("daemon exit status %d, want 0", code)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon never exited after stop")
		}
	}()

	// Index names the surface.
	if code, body := doReq(t, http.MethodGet, base+"/", nil); code != 200 || !strings.Contains(string(body), "umid") {
		t.Fatalf("index: status %d, body %.100s", code, body)
	}

	body := traceBody(t, 256, 192, 64, 2, 1_000_000)
	id := createSession(t, base, body)

	code, runOut := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
	if code != http.StatusOK {
		t.Fatalf("run: status %d, body %.200s", code, runOut)
	}

	// Byte-equivalence against the standalone path (inline workers): the
	// daemon must add exactly nothing to the profile.
	var cfg introspect.SessionConfig
	if err := json.Unmarshal(body, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 0
	want, err := introspect.RunStandalone(cfg)
	if err != nil {
		t.Fatalf("standalone baseline: %v", err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if !bytes.Equal(runOut, wantJSON) {
		t.Errorf("daemon run output differs from standalone baseline (lens %d vs %d)",
			len(runOut), len(wantJSON))
	}

	// Scrapes: report (same bytes), history, metrics, prometheus.
	if code, rep := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil); code != 200 || !bytes.Equal(rep, wantJSON) {
		t.Errorf("report: status %d or bytes differ from run output", code)
	}
	if code, hist := doReq(t, http.MethodGet, base+"/sessions/"+id+"/history", nil); code != 200 || !strings.Contains(string(hist), "umi-history/v1") {
		t.Errorf("history: status %d, body %.100s", code, hist)
	}
	if code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/metrics", nil); code != 200 {
		t.Errorf("metrics: status %d", code)
	}
	code, prom := doReq(t, http.MethodGet, base+"/metrics/prom", nil)
	if code != 200 {
		t.Fatalf("prom: status %d", code)
	}
	for _, want := range []string{"# TYPE ", `session="` + id + `"`} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prom exposition missing %q; body %.200s", want, prom)
		}
	}
	for _, p := range []string{"/fleet/delinquent", "/fleet/phases"} {
		if code, out := doReq(t, http.MethodGet, base+p, nil); code != 200 || !strings.Contains(string(out), id) {
			t.Errorf("GET %s: status %d or missing session id; body %.200s", p, code, out)
		}
	}

	if code, _ := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil); code != http.StatusNotFound {
		t.Errorf("report after delete: status %d, want 404", code)
	}
}

// TestDaemonE2EAdmission: creates past -max-sessions are rejected with
// 429 over real HTTP, and a delete frees the slot.
func TestDaemonE2EAdmission(t *testing.T) {
	base, _, stop, exit := startDaemon(t, "-max-sessions", "2")
	defer func() {
		close(stop)
		<-exit
	}()

	body := traceBody(t, 32, 64, 4, 0, 100_000)
	a := createSession(t, base, body)
	createSession(t, base, body)
	if code, msg := doReq(t, http.MethodPost, base+"/sessions", body); code != http.StatusTooManyRequests {
		t.Fatalf("create past limit: status %d (%s), want 429", code, msg)
	}
	doReq(t, http.MethodDelete, base+"/sessions/"+a, nil)
	createSession(t, base, body)
}

// TestDaemonE2EGracefulDrain: a stop signal while a run is in flight
// must refuse new work with 503, let the run finish with 200, and exit 0.
func TestDaemonE2EGracefulDrain(t *testing.T) {
	base, stderr, stop, exit := startDaemon(t, "-max-sessions", "4")

	// A run long enough to still be executing when the signal lands.
	id := createSession(t, base, traceBody(t, 2048, 256, 2048, 2, 40_000_000))
	runDone := make(chan int, 1)
	go func() {
		code, _ := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
		runDone <- code
	}()
	// Wait until the run is past creation before signalling.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out := doReq(t, http.MethodGet, base+"/sessions", nil)
		if code != 200 {
			t.Fatalf("list: status %d", code)
		}
		if strings.Contains(string(out), `"state": "running"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached running state; sessions: %s", out)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(stop)
	// While draining, the listener stays up and refuses new sessions. The
	// drain window closes when the in-flight run finishes, so tolerate the
	// listener going away (that just means the drain completed).
	refused := false
	small := traceBody(t, 32, 64, 4, 0, 100_000)
	for i := 0; i < 200; i++ {
		resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(small))
		if err != nil {
			break // listener closed: drain already completed
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			refused = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !refused {
		t.Error("create during drain was never refused with 503")
	}

	if code := <-runDone; code != http.StatusOK {
		t.Errorf("in-flight run finished with status %d, want 200", code)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit status %d, want 0", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after drain")
	}
	if out := stderr.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Errorf("stderr missing drain lifecycle lines:\n%s", out)
	}
}

func TestDaemonBadArgs(t *testing.T) {
	if code := run([]string{"positional"}, io.Discard, io.Discard, nil); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, io.Discard, io.Discard, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
