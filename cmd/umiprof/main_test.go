package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"umi/internal/introspect"
	"umi/internal/metrics"
	"umi/internal/umi"
)

// The end-to-end tests drive run() — main minus os.Exit — so they exercise
// the real flag parsing, workload resolution, simulation, and rendering
// path the installed binary takes.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestE2EList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("umiprof -list exited %d", code)
	}
	for _, name := range []string{"181.mcf", "470.lbm", "em3d"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestE2EBadInvocations(t *testing.T) {
	if code, _, errs := runCLI(t); code != 2 || !strings.Contains(errs, "usage:") {
		t.Errorf("no args: exit %d, stderr %q; want 2 with usage", code, errs)
	}
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, errs := runCLI(t, "no-such-workload"); code != 1 ||
		!strings.Contains(errs, "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q; want 1 with diagnosis", code, errs)
	}
	if code, out, errs := runCLI(t, "-machine", "x86", "-emit", filepath.Join(t.TempDir(), "f"), "em3d"); code != 2 ||
		!strings.Contains(errs, "-machine must be p4 or k7") || out != "" {
		t.Errorf("unknown machine: exit %d, stdout %q, stderr %q; want 2 with diagnosis", code, out, errs)
	}
}

func TestE2EReportShape(t *testing.T) {
	code, out, errs := runCLI(t, "470.lbm")
	if code != 0 {
		t.Fatalf("umiprof 470.lbm exited %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"workload:   470.lbm",
		"umi:        umi.Report{",
		"delinquent loads (|P| =",
		"top 10 simulated missers:",
		"sim ratio:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\nfull output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "self-overhead metrics:") {
		t.Error("metrics section printed without -metrics")
	}
}

// TestE2EMetricsOffIsPrefix checks that metrics display is purely
// additive: a -metrics run's output must begin with the exact bytes of a
// metrics-less run (collection is always on; the flag only reveals it).
func TestE2EMetricsOffIsPrefix(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	code, withMetrics, _ := runCLI(t, "-metrics", "470.lbm")
	if code != 0 {
		t.Fatalf("-metrics run exited %d", code)
	}
	if !strings.HasPrefix(withMetrics, plain) {
		t.Errorf("-metrics output is not plain output + suffix:\n--- plain ---\n%s--- with metrics ---\n%s",
			plain, withMetrics)
	}
	suffix := strings.TrimPrefix(withMetrics, plain)
	for _, want := range []string{"self-overhead metrics:", "filter rate:", "umi.traces.instrumented"} {
		if !strings.Contains(suffix, want) {
			t.Errorf("metrics section missing %q:\n%s", want, suffix)
		}
	}
}

func TestE2EMetricsJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, _, errs := runCLI(t, "-metrics-json", path, "470.lbm")
	if code != 0 {
		t.Fatalf("-metrics-json run exited %d, stderr %q", code, errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON does not round-trip: %v", err)
	}
	if snap.Counter("umi.traces.instrumented") == 0 {
		t.Error("round-tripped snapshot lost umi.traces.instrumented")
	}
	if snap.Counter("umi.analyzer.invocations") == 0 {
		t.Error("round-tripped snapshot lost umi.analyzer.invocations")
	}
	if h := snap.Histogram("umi.analyzer.latency_ns"); h.Count == 0 {
		t.Error("round-tripped snapshot lost the analysis latency histogram")
	}
}

// TestE2ETraceOut: -trace-out must leave stdout byte-identical, and the
// written file must be valid, schema-complete, byte-deterministic Chrome
// trace-event JSON.
func TestE2ETraceOut(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	path := filepath.Join(t.TempDir(), "trace.json")
	code, out, errs := runCLI(t, "-trace-out", path, "470.lbm")
	if code != 0 {
		t.Fatalf("-trace-out run exited %d, stderr %q", code, errs)
	}
	if out != plain {
		t.Errorf("-trace-out perturbed stdout:\n--- plain ---\n%s--- traced ---\n%s", plain, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no traceEvents")
	}
	phases := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d missing required key %q: %v", i, key, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		phases[ph] = true
	}
	// Metadata, instants, and the analyzer spans must all be present.
	for _, ph := range []string{"M", "i", "X"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events; phases: %v", ph, phases)
		}
	}
	// Byte-determinism for a fixed workload at the default worker count.
	path2 := filepath.Join(t.TempDir(), "trace2.json")
	if code, _, _ := runCLI(t, "-trace-out", path2, "470.lbm"); code != 0 {
		t.Fatal("second -trace-out run failed")
	}
	data2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("trace files differ across identical runs")
	}
}

// syncBuffer lets the HTTP test read stderr while run() is still writing.
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

// startHTTPRun runs 470.lbm under -http with a linger and returns the
// server's address once it appears on stderr, the run's stdout, and the
// channel its exit code arrives on.
func startHTTPRun(t *testing.T) (string, *bytes.Buffer, chan int) {
	t.Helper()
	out := new(bytes.Buffer)
	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-http", "127.0.0.1:0", "-http-linger", "3s", "470.lbm"}, out, &errb)
	}()
	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/sessions/s1/`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(errb.String()); m != nil {
			return m[1], out, done
		}
		if time.Now().After(deadline) {
			t.Fatalf("server address never appeared on stderr: %q", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// httpGet fetches path and returns its status and body.
func httpGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestE2EHTTP drives the live introspection endpoint end to end: the run
// is session s1 of a one-session daemon on an ephemeral port, serving its
// views while the CLI lingers; once the run is done its report is the
// RunResult that -emit then -ingest print for the same workload, and
// stdout stays byte-identical to a plain run.
func TestE2EHTTP(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	stream := filepath.Join(t.TempDir(), "stream.bin")
	if code, _, errs := runCLI(t, "-emit", stream, "470.lbm"); code != 0 {
		t.Fatalf("emit: exit %d, stderr %q", code, errs)
	}
	_, ingested, _ := runCLI(t, "-ingest", stream)

	addr, out, done := startHTTPRun(t)
	get := func(path string) []byte {
		t.Helper()
		code, body := httpGet(t, addr, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, code)
		}
		return body
	}

	var snap metrics.Snapshot
	if err := json.Unmarshal(get("/sessions/s1/metrics"), &snap); err != nil {
		t.Fatalf("metrics is not a Snapshot: %v", err)
	}
	var events struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(get("/sessions/s1/events?n=50"), &events); err != nil {
		t.Fatalf("events is not valid JSON: %v", err)
	}
	if !bytes.HasPrefix(get("/sessions/s1/events/timeline"), []byte("timeline:")) {
		t.Error("events/timeline missing header")
	}
	var ovh umi.OverheadReport
	if err := json.Unmarshal(get("/sessions/s1/overhead"), &ovh); err != nil {
		t.Fatalf("overhead is not an OverheadReport: %v", err)
	}
	if ovh.Schema != umi.OverheadSchema || len(ovh.Stages) == 0 {
		t.Errorf("overhead payload = %+v, want a schema-stamped staged report", ovh)
	}
	if code, _ := httpGet(t, addr, "/sessions/s1/run"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET run: status %d, want 405", code)
	}
	resp, err := http.Post("http://"+addr+"/sessions", "application/json", strings.NewReader(`{"workload":"em3d"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST /sessions on the one-session daemon: status %d, want 429", resp.StatusCode)
	}

	// The report appears once the run is done; the linger keeps it served.
	var report []byte
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		code, body := httpGet(t, addr, "/sessions/s1/report")
		if code == http.StatusOK {
			report = body
			break
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("report: status %d, body %s", code, body)
		}
	}
	if string(report) != ingested {
		t.Errorf("/sessions/s1/report differs from -emit then -ingest (%d vs %d bytes)", len(report), len(ingested))
	}

	if code := <-done; code != 0 {
		t.Fatalf("-http run exited %d", code)
	}
	if out.String() != plain {
		t.Errorf("-http perturbed stdout:\n--- plain ---\n%s--- http ---\n%s", plain, out.String())
	}
}

// TestE2EHistoryOut: -history-out must leave stdout untouched, write a
// schema-complete history export, and produce byte-identical files across
// runs: windows are stamped with modelled hand-off cycles.
func TestE2EHistoryOut(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	path := filepath.Join(t.TempDir(), "history.json")
	code, out, errs := runCLI(t, "-history-out", path, "470.lbm")
	if code != 0 {
		t.Fatalf("-history-out run exited %d, stderr %q", code, errs)
	}
	if out != plain {
		t.Errorf("-history-out perturbed stdout:\n--- plain ---\n%s--- history ---\n%s", plain, out)
	}
	if !strings.Contains(errs, "umiprof: wrote") {
		t.Errorf("stderr missing write note: %q", errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("history file is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "total", "dropped", "cap", "phase_changes", "windows"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("history export missing key %q", key)
		}
	}
	if doc["schema"] != "umi-history/v1" {
		t.Errorf("schema = %v, want umi-history/v1", doc["schema"])
	}
	windows, _ := doc["windows"].([]any)
	if len(windows) == 0 {
		t.Fatal("history export has no windows")
	}
	w0, _ := windows[0].(map[string]any)
	for _, key := range []string{"invocation", "cycles", "refs", "window_miss_ratio",
		"cum_miss_ratio", "delinquent", "delinquent_hash", "jaccard", "phase_change"} {
		if _, ok := w0[key]; !ok {
			t.Errorf("window missing key %q: %v", key, w0)
		}
	}

	// Determinism: a second run writes a byte-identical export.
	path2 := filepath.Join(t.TempDir(), "h2.json")
	if code, _, _ := runCLI(t, "-history-out", path2, "470.lbm"); code != 0 {
		t.Fatal("second history run failed")
	}
	d2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, d2) {
		t.Error("history exports differ between two runs")
	}
}

// TestE2EHistoryFlag: -history appends the phase-history section to stdout
// after the plain report, leaving the report itself untouched.
func TestE2EHistoryFlag(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	code, out, errs := runCLI(t, "-history", "470.lbm")
	if code != 0 {
		t.Fatalf("-history run exited %d, stderr %q", code, errs)
	}
	if !strings.HasPrefix(out, plain) {
		t.Errorf("-history must extend plain stdout, not rewrite it:\n%s", out)
	}
	if !strings.Contains(out, "phase history: ") {
		t.Errorf("-history output missing phase-history section:\n%s", out)
	}
}

// TestE2EOverheadFlag: -overhead is purely additive (the plain output
// stays a byte-exact prefix) and appends both attribution views — the
// deterministic modelled table and the measured wall table.
func TestE2EOverheadFlag(t *testing.T) {
	_, plain, _ := runCLI(t, "470.lbm")
	code, out, errs := runCLI(t, "-overhead", "470.lbm")
	if code != 0 {
		t.Fatalf("-overhead run exited %d, stderr %q", code, errs)
	}
	if !strings.HasPrefix(out, plain) {
		t.Errorf("-overhead must extend plain stdout, not rewrite it:\n%s", out)
	}
	suffix := strings.TrimPrefix(out, plain)
	for _, want := range []string{
		"self-overhead: guest",
		"substrate",
		"self-overhead (wall): run",
		"(sampled estimate)",
	} {
		if !strings.Contains(suffix, want) {
			t.Errorf("-overhead section missing %q:\n%s", want, suffix)
		}
	}
}

// TestE2EPromScrape scrapes /metrics/prom off a live run: the exposition
// must parse (TYPE-declared families, parseable sample values), label the
// run's samples session="s1", and carry the stable names dashboards pin.
func TestE2EPromScrape(t *testing.T) {
	addr, _, done := startHTTPRun(t)
	resp, err := http.Get("http://" + addr + "/metrics/prom")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want a 0.0.4 exposition", ct)
	}
	types := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: unparseable value in %q", ln+1, line)
		}
	}
	// The stable names dashboards depend on: at least one counter, one
	// gauge, one histogram from the registry, plus the history families.
	wantTypes := map[string]string{
		"umi_phase_windows_total": "counter",
		"umi_phase_changes_total": "counter",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Errorf("family %s = %q, want %q; all: %v", name, types[name], typ, types)
		}
	}
	if !strings.Contains(string(body), `umi_phase_windows_total{session="s1"} `) {
		t.Errorf("phase-history counter not labeled session=\"s1\":\n%s", body)
	}
	var haveCounter, haveGauge, haveHist bool
	for _, typ := range types {
		switch typ {
		case "counter":
			haveCounter = true
		case "gauge":
			haveGauge = true
		case "histogram":
			haveHist = true
		}
	}
	if !haveCounter || !haveGauge || !haveHist {
		t.Errorf("exposition lacks a metric kind: counter=%v gauge=%v histogram=%v",
			haveCounter, haveGauge, haveHist)
	}

	if code := <-done; code != 0 {
		t.Fatalf("-http run exited %d", code)
	}
}

// TestE2ETranscode drives the -transcode path end to end: a v1 recording
// re-encoded to v2 must come out smaller and replay byte-identically, and
// the flag surface must reject a missing -o.
func TestE2ETranscode(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "stream-v1.bin")
	v2 := filepath.Join(dir, "stream-v2.bin")
	if code, _, errs := runCLI(t, "-emit", v1, "-emit-format", "1", "em3d"); code != 0 {
		t.Fatalf("emit: exit %d, stderr %q", code, errs)
	}
	code, _, errs := runCLI(t, "-transcode", v1, "-o", v2)
	if code != 0 {
		t.Fatalf("transcode: exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(errs, "transcoded") {
		t.Errorf("transcode summary missing from stderr: %q", errs)
	}
	s1, err := os.Stat(v1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Size() >= s1.Size() {
		t.Errorf("v2 re-encoding (%d bytes) not smaller than v1 (%d bytes)", s2.Size(), s1.Size())
	}
	_, rep1, _ := runCLI(t, "-ingest", v1)
	code, rep2, errs := runCLI(t, "-ingest", v2)
	if code != 0 {
		t.Fatalf("ingest v2: exit %d, stderr %q", code, errs)
	}
	if rep1 != rep2 {
		t.Error("v2 replay report differs from the v1 replay report")
	}
	if code, _, _ := runCLI(t, "-transcode", v1); code != 2 {
		t.Errorf("-transcode without -o: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-transcode", filepath.Join(dir, "nope.bin"), "-o", v2); code != 1 {
		t.Errorf("-transcode of a missing file: exit %d, want 1", code)
	}
}

// TestE2EEmitIngestByteIdentity is the wire format's end-to-end contract
// through the real CLI: replaying a stream recorded with -emit through
// -ingest reproduces the standalone RunResult byte for byte, and -emit
// itself never perturbs the printed report.
func TestE2EEmitIngestByteIdentity(t *testing.T) {
	const wl = "em3d"
	dir := t.TempDir()

	base, err := introspect.RunStandalone(introspect.SessionConfig{Workload: wl})
	if err != nil {
		t.Fatalf("standalone baseline: %v", err)
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := string(data) + "\n"

	_, plain, _ := runCLI(t, wl)
	streamFile := filepath.Join(dir, "stream.bin")
	code, out, errs := runCLI(t, "-emit", streamFile, wl)
	if code != 0 {
		t.Fatalf("emit: exit %d, stderr %q", code, errs)
	}
	if out != plain {
		t.Error("-emit perturbed the report")
	}
	code, out, errs = runCLI(t, "-ingest", streamFile)
	if code != 0 {
		t.Fatalf("ingest: exit %d, stderr %q", code, errs)
	}
	if out != want {
		t.Errorf("ingest result diverges from standalone run (%d vs %d bytes)", len(out), len(want))
	}
}

// TestE2EIngestRemote ships a recorded stream to a live umid daemon with
// -ingest-addr; the daemon's response must be the same byte-identical
// RunResult the local replay prints.
func TestE2EIngestRemote(t *testing.T) {
	const wl = "em3d"
	dir := t.TempDir()
	streamFile := filepath.Join(dir, "stream.bin")
	if code, _, errs := runCLI(t, "-emit", streamFile, wl); code != 0 {
		t.Fatalf("emit: exit %d, stderr %q", code, errs)
	}
	_, local, _ := runCLI(t, "-ingest", streamFile)

	d := introspect.NewDaemon(introspect.DaemonConfig{})
	addr, stop, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	defer func() {
		stop()
		d.Shutdown()
	}()

	code, out, errs := runCLI(t, "-ingest", streamFile, "-ingest-addr", addr)
	if code != 0 {
		t.Fatalf("remote ingest: exit %d, stderr %q", code, errs)
	}
	if out != local {
		t.Errorf("remote ingest result diverges from local replay (%d vs %d bytes)", len(out), len(local))
	}
	if !strings.Contains(errs, "ingested") {
		t.Errorf("stderr missing ingest note: %q", errs)
	}

	// A second shard into the same daemon via a fresh session still works
	// (the client creates a session per invocation).
	if code, _, errs := runCLI(t, "-ingest", streamFile, "-ingest-addr", addr); code != 0 {
		t.Errorf("second remote ingest: exit %d, stderr %q", code, errs)
	}

	// Bad invocation: -ingest-addr without -ingest.
	if code, _, _ := runCLI(t, "-ingest-addr", addr, wl); code != 2 {
		t.Errorf("-ingest-addr without -ingest: exit %d, want 2", code)
	}
}

// TestE2EIngestRemoteReleasesSession: a remote ingest deletes its session
// once the daemon has answered, after a refused upload as after a good
// one, so a one-slot daemon takes any number of them in turn.
func TestE2EIngestRemoteReleasesSession(t *testing.T) {
	dir := t.TempDir()
	streamFile := filepath.Join(dir, "stream.bin")
	if code, _, errs := runCLI(t, "-emit", streamFile, "em3d"); code != 0 {
		t.Fatalf("emit: exit %d, stderr %q", code, errs)
	}
	junkFile := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junkFile, []byte("not a stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	d := introspect.NewDaemon(introspect.DaemonConfig{MaxSessions: 1})
	addr, stop, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	defer func() {
		stop()
		d.Shutdown()
	}()

	if code, _, errs := runCLI(t, "-ingest", junkFile, "-ingest-addr", addr); code != 1 {
		t.Errorf("refused upload: exit %d, want 1; stderr %q", code, errs)
	}
	var outs [2]string
	for i := range outs {
		code, out, errs := runCLI(t, "-ingest", streamFile, "-ingest-addr", addr)
		if code != 0 {
			t.Fatalf("remote ingest %d: exit %d, stderr %q", i, code, errs)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Errorf("the two remote ingests printed different results (%d vs %d bytes)", len(outs[0]), len(outs[1]))
	}
	if n := d.SessionCount(); n != 0 {
		t.Errorf("%d sessions left on the daemon, want 0", n)
	}
}
