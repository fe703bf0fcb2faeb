package introspect

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"umi/internal/metrics"
	"umi/internal/tracelog"
	"umi/internal/umi"
)

func testServer() (*Server, *metrics.Registry, *tracelog.Log) {
	reg := metrics.NewRegistry()
	l := tracelog.NewLog(16)
	return &Server{Metrics: reg.Snapshot, Events: l}, reg, l
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s, reg, _ := testServer()
	reg.Counter("umi.traces.seen").Add(7)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Counter("umi.traces.seen") != 7 {
		t.Errorf("counter = %d, want 7", snap.Counter("umi.traces.seen"))
	}
}

func TestMetricsDeltaEndpoint(t *testing.T) {
	s, reg, _ := testServer()
	c := reg.Counter("c")
	c.Add(5)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First scrape diffs against the zero snapshot: cumulative values.
	_, body := get(t, ts, "/metrics/delta")
	var d metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Counter("c") != 5 {
		t.Errorf("first delta = %d, want 5", d.Counter("c"))
	}
	// Second scrape reports only the interval.
	c.Add(3)
	_, body = get(t, ts, "/metrics/delta")
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Counter("c") != 3 {
		t.Errorf("second delta = %d, want 3", d.Counter("c"))
	}
}

func TestEventsEndpoint(t *testing.T) {
	s, _, l := testServer()
	for i := 0; i < 20; i++ { // ring cap 16: four drops
		l.Emit(tracelog.Event{Type: tracelog.EvTracePromoted, Cycles: uint64(i)})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/events")
	var p struct {
		Total  uint64           `json:"total"`
		Drops  uint64           `json:"drops"`
		Cap    int              `json:"cap"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/events is not valid JSON: %v\n%s", err, body)
	}
	if p.Total != 20 || p.Drops != 4 || p.Cap != 16 || len(p.Events) != 16 {
		t.Errorf("payload = total %d drops %d cap %d events %d, want 20/4/16/16",
			p.Total, p.Drops, p.Cap, len(p.Events))
	}
	if p.Events[0]["type"] != "trace.promoted" {
		t.Errorf("event type = %v, want trace.promoted", p.Events[0]["type"])
	}

	// ?n limits to the most recent n.
	_, body = get(t, ts, "/events?n=3")
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Errorf("?n=3 returned %d events", len(p.Events))
	}

	if code, _ := get(t, ts, "/events?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("?n=bogus status = %d, want 400", code)
	}
}

func TestTimelineAndTraceEndpoints(t *testing.T) {
	s, _, l := testServer()
	l.Emit(tracelog.Event{Type: tracelog.EvAnalyzerEnd, Cycles: 100, Dur: 9,
		Arg1: 10, Arg2: 2, Arg3: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/events/timeline")
	if !strings.HasPrefix(body, "timeline: 1 events") {
		t.Errorf("/events/timeline = %q", body)
	}
	_, body = get(t, ts, "/events/trace")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events/trace is not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/events/trace has no traceEvents")
	}
}

func TestPprofAndIndex(t *testing.T) {
	s, _, _ := testServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _ := get(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get(t, ts, "/nope"); code != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", code)
	}
}

// TestNilSources: a server with no metrics source and no event log must
// serve empty payloads, not panic — the disabled-observability state.
func TestNilSources(t *testing.T) {
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/metrics/delta", "/events", "/events/timeline", "/events/trace"} {
		if code, _ := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s status = %d with nil sources", path, code)
		}
	}
}

func TestServeLifecycle(t *testing.T) {
	s, reg, _ := testServer()
	reg.Counter("x").Add(1)
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET bound server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after stop")
	}
}

func TestHistoryEndpoint(t *testing.T) {
	s, _, _ := testServer()
	s.History = func() umi.HistoryView {
		return umi.HistoryView{
			Schema: "umi-history/v1", Total: 5, Dropped: 2, Cap: 3, PhaseChanges: 1,
			Windows: []umi.WindowSummary{
				{Invocation: 3, Cycles: 100, Refs: 10},
				{Invocation: 4, Cycles: 200, Refs: 20, PhaseChange: true},
				{Invocation: 5, Cycles: 300, Refs: 30},
			},
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/history")
	if code != http.StatusOK {
		t.Fatalf("/history status = %d", code)
	}
	var v umi.HistoryView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/history is not a HistoryView: %v\n%s", err, body)
	}
	if v.Schema != "umi-history/v1" || v.Total != 5 || v.Dropped != 2 || len(v.Windows) != 3 {
		t.Errorf("history payload = %+v", v)
	}
	if v.Windows[1].Invocation != 4 || !v.Windows[1].PhaseChange {
		t.Errorf("window payload = %+v", v.Windows[1])
	}
}

// TestPromEndpoint: /metrics/prom must serve a valid text exposition
// carrying at least one counter, one gauge, and one histogram from the
// registry, plus the phase-history family.
func TestPromEndpoint(t *testing.T) {
	s, reg, _ := testServer()
	reg.Counter("umi.traces.seen").Add(7)
	reg.Gauge("umi.pool.depth").Set(2)
	reg.Histogram("umi.analysis.latency", metrics.ExpBuckets(1, 4)).Observe(3)
	s.History = func() umi.HistoryView {
		return umi.HistoryView{Schema: "umi-history/v1", Total: 2,
			Windows: []umi.WindowSummary{{Invocation: 2, Cycles: 500}}}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Structural validity: every sample preceded by its TYPE line, values
	// parseable, bucket series cumulative with a final +Inf.
	types := make(map[string]string)
	var cum uint64
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: unparseable value in %q", ln+1, line)
		}
		if strings.HasPrefix(line, "umi_analysis_latency_bucket") {
			v, _ := strconv.ParseUint(line[sp+1:], 10, 64)
			if v < cum {
				t.Fatalf("line %d: bucket not cumulative", ln+1)
			}
			cum = v
		}
	}
	if types["umi_traces_seen"] != "counter" ||
		types["umi_pool_depth"] != "gauge" ||
		types["umi_analysis_latency"] != "histogram" {
		t.Errorf("missing metric families: %v", types)
	}
	if types["umi_phase_windows_total"] != "counter" ||
		types["umi_phase_last_cycles"] != "gauge" {
		t.Errorf("missing phase-history families: %v", types)
	}
	if !strings.Contains(body, `umi_analysis_latency_bucket{le="+Inf"} 1`) {
		t.Errorf("missing +Inf bucket:\n%s", body)
	}
	if !strings.Contains(body, "umi_phase_last_cycles 500\n") {
		t.Errorf("missing latest-window gauge:\n%s", body)
	}
}

// TestOverheadEndpoint: /overhead must serve the attribution report as
// JSON, and /metrics/prom must carry the same numbers in the
// umi_overhead_* families — the two surfaces describe one report.
func TestOverheadEndpoint(t *testing.T) {
	s, _, _ := testServer()
	s.Overhead = func() *umi.OverheadReport {
		return &umi.OverheadReport{
			Schema:         umi.OverheadSchema,
			GuestCycles:    1_000_000,
			OverheadCycles: 25_000,
			OverheadRatio:  0.025,
			GuestWallNs:    4_000_000,
			Stages: []umi.StageCost{
				{Stage: "instrument", Events: 12, ModelledCycles: 6_000, CycleRatio: 0.006},
				{Stage: "fill", Events: 800, ModelledCycles: 19_000, CycleRatio: 0.019, WallNs: 90_000, WallRatio: 0.0225},
			},
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/overhead")
	if code != http.StatusOK {
		t.Fatalf("/overhead status = %d", code)
	}
	var r umi.OverheadReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("/overhead is not an OverheadReport: %v\n%s", err, body)
	}
	if r.Schema != umi.OverheadSchema || r.GuestCycles != 1_000_000 || len(r.Stages) != 2 {
		t.Errorf("overhead payload = %+v", r)
	}
	if st := r.Stage("fill"); st.ModelledCycles != 19_000 || st.WallNs != 90_000 {
		t.Errorf("fill stage payload = %+v", st)
	}

	// The Prometheus exposition must agree with the JSON report — every
	// umi_overhead_* sample structurally valid (TYPE declared before use,
	// parseable value) and numerically equal to the report's fields.
	_, prom := get(t, ts, "/metrics/prom")
	types := make(map[string]bool)
	samples := make(map[string]float64)
	for ln, line := range strings.Split(strings.TrimRight(prom, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[f[2]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value in %q", ln+1, line)
		}
		name := line[:sp]
		if strings.HasPrefix(name, "umi_overhead") {
			base := name
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			if !types[base] {
				t.Fatalf("line %d: sample %q before its TYPE line", ln+1, line)
			}
			samples[name] = v
		}
	}
	want := map[string]float64{
		"umi_overhead_guest_cycles":                     1_000_000,
		"umi_overhead_cycles_total":                     25_000,
		"umi_overhead_ratio":                            0.025,
		`umi_overhead_stage_cycles{stage="fill"}`:       19_000,
		`umi_overhead_stage_wall_ns{stage="fill"}`:      90_000,
		`umi_overhead_stage_cycles{stage="instrument"}`: 6_000,
	}
	for name, w := range want {
		if got, ok := samples[name]; !ok || got != w {
			t.Errorf("/metrics/prom %s = %v (present %v), /overhead says %v", name, got, ok, w)
		}
	}
}

// TestOverheadNilSource: with no overhead source the endpoint serves an
// empty schema-stamped report, and the exposition omits nothing fatal.
func TestOverheadNilSource(t *testing.T) {
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/overhead")
	if code != http.StatusOK {
		t.Fatalf("/overhead status = %d with nil source", code)
	}
	var r umi.OverheadReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != umi.OverheadSchema || r.GuestCycles != 0 || len(r.Stages) != 0 {
		t.Errorf("nil-source overhead = %+v, want empty schema-stamped report", r)
	}
}

// TestHistoryNilSource: both history surfaces must serve the empty view
// when no history source is wired.
func TestHistoryNilSource(t *testing.T) {
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/history")
	if code != http.StatusOK {
		t.Fatalf("/history status = %d with nil source", code)
	}
	var v umi.HistoryView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Schema == "" || v.Total != 0 || len(v.Windows) != 0 {
		t.Errorf("nil-source history = %+v, want empty schema-stamped view", v)
	}
	if code, _ := get(t, ts, "/metrics/prom"); code != http.StatusOK {
		t.Errorf("/metrics/prom status = %d with nil sources", code)
	}
}

// TestStopFinishesInFlightResponses: the daemon's drain learns a run is
// complete from inside its handler, before net/http has written the
// response out, so stopping the server at that point must still deliver
// the whole response. The handler here lingers after signalling, as a
// descheduled connection goroutine would.
func TestStopFinishesInFlightResponses(t *testing.T) {
	body := strings.Repeat("x", 3000) // fits net/http's write buffer: sent only after return
	handled := make(chan struct{})
	addr, stop, err := serveHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
		close(handled)
		time.Sleep(50 * time.Millisecond)
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			got <- err.Error()
			return
		}
		got <- string(data)
	}()
	<-handled
	stop()
	if g := <-got; g != body {
		t.Fatalf("stopped mid-response: client read %.60q, want the %d-byte body", g, len(body))
	}
}

// TestStalledHeaderIsClosed: a client that sends half a request header
// and goes silent (slowloris) must lose its connection once the header
// timeout passes, in umid and umiprof -http alike, instead of holding a
// connection and its goroutine forever.
func TestStalledHeaderIsClosed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	addr, stop, err := serveHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: umi\r\nX-Stall: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open 5s into a stalled header (read %d bytes)", n)
	}
}
