package introspect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"umi/internal/harness"
	"umi/internal/metrics"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/internal/workloads"
)

// unrunSystem attaches UMI to a small guest without running it: its
// registry and event ring (capacity 16) hold exactly what a test writes.
func unrunSystem(t *testing.T) (*umi.System, *tracelog.Log) {
	t.Helper()
	cfg := tinyConfig(0)
	prog, err := cfg.guestProgram()
	if err != nil {
		t.Fatal(err)
	}
	sys := umi.Attach(rio.NewRuntime(vm.New(prog, harness.P4.Hierarchy(false))), harness.UMIParams(harness.P4))
	return sys, sys.EnableEventTrace(16)
}

// adoptedSession serves a one-session daemon that adopted an unrun System
// as session s1, the shape `umiprof -http` serves. It returns the System,
// its event ring, the session's base URL, and the function that records
// the run's result.
func adoptedSession(t *testing.T) (*umi.System, *tracelog.Log, string, func(*RunResult)) {
	t.Helper()
	sys, elog := unrunSystem(t)
	d := NewDaemon(DaemonConfig{MaxSessions: 1})
	id, finish, err := d.Adopt("trace", sys)
	if err != nil || id != "s1" {
		t.Fatalf("Adopt = %q, %v; want s1", id, err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		d.Shutdown()
	})
	return sys, elog, ts.URL, finish
}

func TestMetricsEndpoint(t *testing.T) {
	sys, _, base, _ := adoptedSession(t)
	sys.Metrics().TracesSeen.Add(7)

	code, body := doReq(t, http.MethodGet, base+"/sessions/s1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Counter("umi.traces.seen") != 7 {
		t.Errorf("counter = %d, want 7", snap.Counter("umi.traces.seen"))
	}
}

func TestMetricsDeltaEndpoint(t *testing.T) {
	sys, _, base, _ := adoptedSession(t)
	c := sys.Metrics().TracesSeen
	c.Add(5)

	delta := func() uint64 {
		t.Helper()
		_, body := doReq(t, http.MethodGet, base+"/sessions/s1/metrics/delta", nil)
		var d metrics.Snapshot
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		return d.Counter("umi.traces.seen")
	}
	// First scrape diffs against the zero snapshot: cumulative values.
	if got := delta(); got != 5 {
		t.Errorf("first delta = %d, want 5", got)
	}
	// Second scrape reports only the interval.
	c.Add(3)
	if got := delta(); got != 3 {
		t.Errorf("second delta = %d, want 3", got)
	}
}

func TestEventsEndpoint(t *testing.T) {
	_, l, base, _ := adoptedSession(t)
	for i := 0; i < 20; i++ { // ring cap 16: four drops
		l.Emit(tracelog.Event{Type: tracelog.EvTracePromoted, Cycles: uint64(i)})
	}

	_, body := doReq(t, http.MethodGet, base+"/sessions/s1/events", nil)
	var p struct {
		Total  uint64           `json:"total"`
		Drops  uint64           `json:"drops"`
		Cap    int              `json:"cap"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("events is not valid JSON: %v\n%s", err, body)
	}
	if p.Total != 20 || p.Drops != 4 || p.Cap != 16 || len(p.Events) != 16 {
		t.Errorf("payload = total %d drops %d cap %d events %d, want 20/4/16/16",
			p.Total, p.Drops, p.Cap, len(p.Events))
	}
	if p.Events[0]["type"] != "trace.promoted" {
		t.Errorf("event type = %v, want trace.promoted", p.Events[0]["type"])
	}

	// ?n limits to the most recent n.
	_, body = doReq(t, http.MethodGet, base+"/sessions/s1/events?n=3", nil)
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Errorf("?n=3 returned %d events", len(p.Events))
	}

	for _, bad := range []string{"bogus", "-1"} {
		if code, _ := doReq(t, http.MethodGet, base+"/sessions/s1/events?n="+bad, nil); code != http.StatusBadRequest {
			t.Errorf("?n=%s status = %d, want 400", bad, code)
		}
	}
}

func TestTimelineAndTraceEndpoints(t *testing.T) {
	_, l, base, _ := adoptedSession(t)
	l.Emit(tracelog.Event{Type: tracelog.EvAnalyzerEnd, Cycles: 100, Dur: 9,
		Arg1: 10, Arg2: 2, Arg3: 1})

	_, body := doReq(t, http.MethodGet, base+"/sessions/s1/events/timeline", nil)
	if !strings.HasPrefix(string(body), "timeline: 1 events") {
		t.Errorf("events/timeline = %q", body)
	}
	_, body = doReq(t, http.MethodGet, base+"/sessions/s1/events/trace", nil)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("events/trace is not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("events/trace has no traceEvents")
	}
}

func TestPprofAndIndex(t *testing.T) {
	_, _, base, _ := adoptedSession(t)

	if code, body := doReq(t, http.MethodGet, base+"/", nil); code != http.StatusOK ||
		!strings.Contains(string(body), "/sessions/{id}/events/trace") {
		t.Errorf("index status %d body %q", code, body)
	}
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		if code, _ := doReq(t, http.MethodGet, base+p, nil); code != http.StatusOK {
			t.Errorf("%s status = %d", p, code)
		}
	}
	if code, _ := doReq(t, http.MethodGet, base+"/nope", nil); code != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", code)
	}
}

// unrunSessions serves a daemon holding one guest and one ingest session,
// both created but not yet run: neither has a registry, history ring or
// event ring behind it. It returns the daemon's base URL and the two ids.
func unrunSessions(t *testing.T) (string, []string) {
	t.Helper()
	_, base := startDaemon(t, DaemonConfig{})
	return base, []string{createSession(t, base, tinyConfig(0)), createIngestSession(t, base, 0)}
}

// decodeView fetches a session view, requires 200, and decodes its JSON.
func decodeView(t *testing.T, base, id, name string, v any) {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/"+name, nil)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d", id, name, code)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s %s: %v", id, name, err)
	}
}

// TestNilSources: an unrun session — guest or ingest — must serve empty
// payloads on its metrics and event views rather than fail, and refuse
// its report until a run has finished.
func TestNilSources(t *testing.T) {
	base, ids := unrunSessions(t)
	for _, id := range ids {
		if code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil); code != http.StatusConflict {
			t.Errorf("%s report before a run: status %d, want 409", id, code)
		}
		for _, name := range []string{"metrics", "metrics/delta"} {
			var snap metrics.Snapshot
			decodeView(t, base, id, name, &snap)
			if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
				t.Errorf("%s %s = %+v, want empty", id, name, snap)
			}
		}
		var ev struct {
			Total, Drops uint64
			Cap          int
			Events       []map[string]any
		}
		decodeView(t, base, id, "events", &ev)
		if ev.Total != 0 || ev.Cap != 0 || ev.Events == nil || len(ev.Events) != 0 {
			t.Errorf("%s events = %+v, want an empty ring", id, ev)
		}
		code, tl := doReq(t, http.MethodGet, base+"/sessions/"+id+"/events/timeline", nil)
		if code != http.StatusOK || string(tl) != "timeline: 0 events\n" {
			t.Errorf("%s events/timeline = %d %q", id, code, tl)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		decodeView(t, base, id, "events/trace", &doc)
	}
}

// TestOverheadNilSource: an unrun session has no overhead ledger and must
// serve the empty, schema-stamped report.
func TestOverheadNilSource(t *testing.T) {
	base, ids := unrunSessions(t)
	for _, id := range ids {
		var r umi.OverheadReport
		decodeView(t, base, id, "overhead", &r)
		if r.Schema != umi.OverheadSchema || r.GuestCycles != 0 || len(r.Stages) != 0 {
			t.Errorf("%s overhead = %+v, want an empty schema-stamped report", id, r)
		}
	}
}

// TestHistoryNilSource: an unrun session has no history ring and must
// serve the empty, schema-stamped view; the fleet Prometheus scrape must
// still succeed with such sessions in it.
func TestHistoryNilSource(t *testing.T) {
	base, ids := unrunSessions(t)
	for _, id := range ids {
		var v umi.HistoryView
		decodeView(t, base, id, "history", &v)
		if v.Schema == "" || v.Total != 0 || len(v.Windows) != 0 {
			t.Errorf("%s history = %+v, want an empty schema-stamped view", id, v)
		}
	}
	if code, _ := doReq(t, http.MethodGet, base+"/metrics/prom", nil); code != http.StatusOK {
		t.Errorf("/metrics/prom status = %d with unrun sessions", code)
	}
}

// TestServeLifecycle follows an adopted session from serving to stop:
// while its run is in flight the report is 409, the one-session daemon
// refuses a second session with 429 and a run request with 409, finish
// publishes the result, and stop takes the listener down.
func TestServeLifecycle(t *testing.T) {
	sys, _ := unrunSystem(t)
	d := NewDaemon(DaemonConfig{MaxSessions: 1})
	defer d.Shutdown()
	_, finish, err := d.Adopt("trace", sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Adopt("again", sys); err == nil {
		t.Error("second Adopt past MaxSessions 1 succeeded")
	}
	addr, stop, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	if code, _ := doReq(t, http.MethodGet, base+"/sessions/s1/report", nil); code != http.StatusConflict {
		t.Errorf("report mid-run: status %d, want 409", code)
	}
	if code, _ := doReq(t, http.MethodPost, base+"/sessions", []byte(`{"workload":"em3d"}`)); code != http.StatusTooManyRequests {
		t.Errorf("POST /sessions on a one-session daemon: status %d, want 429", code)
	}
	if code, _ := doReq(t, http.MethodPost, base+"/sessions/s1/run", nil); code != http.StatusConflict {
		t.Errorf("run of an adopted session: status %d, want 409", code)
	}

	res := &RunResult{Report: sys.Report(), History: sys.History(), Cycles: 1, Instrs: 2}
	finish(res)
	code, body := doReq(t, http.MethodGet, base+"/sessions/s1/report", nil)
	if want := resultBytes(t, res); code != http.StatusOK || string(body) != string(want) {
		t.Errorf("report after finish: status %d\n got %s\nwant %s", code, body, want)
	}
	_, list := doReq(t, http.MethodGet, base+"/sessions", nil)
	if !strings.Contains(string(list), `"state": "done"`) {
		t.Errorf("listing after finish = %s, want state done", list)
	}

	stop()
	if _, err := http.Get(base + "/sessions/s1/metrics"); err == nil {
		t.Error("server still reachable after stop")
	}
}

// ranSession runs a guest session through a daemon and returns the
// daemon's base URL and the session id.
func ranSession(t *testing.T) (string, string) {
	t.Helper()
	_, base := startDaemon(t, DaemonConfig{})
	id := createSession(t, base, traceSessionConfig(0, 0))
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil); code != http.StatusOK {
		t.Fatalf("run: status %d, body %s", code, body)
	}
	return base, id
}

// parseProm checks a text exposition the way a scraper's parser would —
// one # TYPE line per family, ahead of every sample of the family, and
// parseable sample values — and returns the declared types and every
// sample's value keyed by its name and label set.
func parseProm(t *testing.T, body string) (map[string]string, map[string]float64) {
	t.Helper()
	types := make(map[string]string)
	samples := make(map[string]float64)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if types[f[2]] != "" {
				t.Fatalf("line %d: family %s declared twice", ln+1, f[2])
			}
			types[f[2]] = f[3]
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
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(family, suffix); f != family && types[f] == "histogram" {
				family = f
			}
		}
		if types[family] == "" {
			t.Fatalf("line %d: sample %q before its TYPE line", ln+1, line)
		}
		samples[name] = v
	}
	return types, samples
}

// TestHistoryEndpoint: after a run, the history view serves exactly the
// history the run's result carries.
func TestHistoryEndpoint(t *testing.T) {
	base, id := ranSession(t)
	_, report := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil)
	var res RunResult
	if err := json.Unmarshal(report, &res); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(res.History, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	code, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/history", nil)
	if code != http.StatusOK || string(body) != string(want)+"\n" {
		t.Errorf("history: status %d\n got %s\nwant %s", code, body, want)
	}
	if res.History.Total == 0 || len(res.History.Windows) == 0 {
		t.Errorf("run recorded no history windows: %+v", res.History)
	}
}

// TestPromEndpoint: after a run, the fleet exposition carries the
// session's registry families (every kind), its umi_phase_* families and
// its umi_overhead_* families, each sample labeled with the session, and
// the daemon's own ingest counters under the "ingest" label.
func TestPromEndpoint(t *testing.T) {
	base, id := ranSession(t)
	resp, err := http.Get(base + "/metrics/prom")
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
	types, samples := parseProm(t, string(raw))
	for family, typ := range map[string]string{
		"umi_traces_seen":              "counter",
		"umi_pool_seq_backlog":         "gauge",
		"umi_pool_seq_backlog_max":     "gauge",
		"umi_analyzer_latency_ns":      "histogram",
		"umi_phase_windows_total":      "counter",
		"umi_phase_last_cycles":        "gauge",
		"umi_overhead_ratio":           "gauge",
		"umi_overhead_stage_cycles":    "gauge",
		"umid_ingest_streams":          "counter",
		"umid_ingest_frame_latency_ns": "histogram",
	} {
		if types[family] != typ {
			t.Errorf("family %s = %q, want %q", family, types[family], typ)
		}
	}
	label := `session="` + id + `"`
	for _, name := range []string{
		"umi_traces_seen{" + label + "}",
		"umi_analyzer_latency_ns_bucket{" + label + `,le="+Inf"}`,
		"umi_phase_windows_total{" + label + "}",
		"umi_overhead_stage_cycles{" + label + `,stage="fill"}`,
		`umid_ingest_streams{session="ingest"}`,
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition lacks %s:\n%s", name, raw)
		}
	}
	for name := range samples {
		if !strings.Contains(name, label) && !strings.Contains(name, `session="ingest"`) {
			t.Errorf("sample %s carries no session label", name)
		}
	}
}

// TestOverheadEndpoint: after a run, the fleet exposition's umi_phase_*
// and umi_overhead_* samples for the session equal what its history and
// overhead views serve — the views and the scrape describe one state.
func TestOverheadEndpoint(t *testing.T) {
	base, id := ranSession(t)
	var ovh umi.OverheadReport
	_, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/overhead", nil)
	if err := json.Unmarshal(body, &ovh); err != nil {
		t.Fatalf("overhead is not an OverheadReport: %v\n%s", err, body)
	}
	if ovh.Schema != umi.OverheadSchema || ovh.GuestCycles == 0 || len(ovh.Stages) == 0 {
		t.Fatalf("overhead payload = %+v, want a staged report of the run", ovh)
	}
	var hv umi.HistoryView
	_, body = doReq(t, http.MethodGet, base+"/sessions/"+id+"/history", nil)
	if err := json.Unmarshal(body, &hv); err != nil || len(hv.Windows) == 0 {
		t.Fatalf("history = %s (%v), want windows", body, err)
	}
	last := hv.Windows[len(hv.Windows)-1]

	_, prom := doReq(t, http.MethodGet, base+"/metrics/prom", nil)
	_, samples := parseProm(t, string(prom))
	label := `session="` + id + `"`
	want := map[string]float64{
		"umi_overhead_guest_cycles{" + label + "}":   float64(ovh.GuestCycles),
		"umi_overhead_cycles_total{" + label + "}":   float64(ovh.OverheadCycles),
		"umi_overhead_ratio{" + label + "}":          ovh.OverheadRatio,
		"umi_phase_windows_total{" + label + "}":     float64(hv.Total),
		"umi_phase_changes_total{" + label + "}":     float64(hv.PhaseChanges),
		"umi_phase_window_miss_ratio{" + label + "}": last.WindowMissRatio,
		"umi_phase_jaccard{" + label + "}":           last.Jaccard,
		"umi_phase_last_cycles{" + label + "}":       float64(last.Cycles),
	}
	for _, st := range ovh.Stages {
		stage := fmt.Sprintf(`{%s,stage=%q}`, label, st.Stage)
		want["umi_overhead_stage_cycles"+stage] = float64(st.ModelledCycles)
		want["umi_overhead_stage_wall_ns"+stage] = float64(st.WallNs)
	}
	for name, w := range want {
		if got, ok := samples[name]; !ok || got != w {
			t.Errorf("/metrics/prom %s = %v (present %v), the views say %v", name, got, ok, w)
		}
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

// TestRunSessionRIOMetrics pins that a umid run reports the substrate's
// counters: after POST /sessions/{id}/run on 181.mcf, the session's
// metrics view and its rio_* samples on /metrics/prom equal what
// harness.RunUMI reports for the same guest and config.
func TestRunSessionRIOMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 181.mcf twice")
	}
	w, _ := workloads.ByName("181.mcf")
	ref, err := harness.RunUMI(w, harness.P4, harness.UMIParams(harness.P4), false, false)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startDaemon(t, DaemonConfig{})
	id := createSession(t, base, SessionConfig{Workload: w.Name})
	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil); code != http.StatusOK {
		t.Fatalf("run: status %d, body %.200s", code, body)
	}
	var snap metrics.Snapshot
	decodeView(t, base, id, "metrics", &snap)
	_, prom := doReq(t, http.MethodGet, base+"/metrics/prom", nil)
	_, samples := parseProm(t, string(prom))
	for _, name := range []string{"rio.blocks_built", "rio.traces_built", "rio.dispatches"} {
		want := ref.Sys.MetricsSnapshot().Counter(name)
		if want == 0 {
			t.Fatalf("harness.RunUMI reports %s = 0", name)
		}
		if got := snap.Counter(name); got != want {
			t.Errorf("metrics view %s = %d, harness.RunUMI %d", name, got, want)
		}
		sample := strings.ReplaceAll(name, ".", "_") + `{session="` + id + `"}`
		if got, ok := samples[sample]; !ok || got != float64(want) {
			t.Errorf("/metrics/prom %s = %v (present %v), harness.RunUMI %d", sample, got, ok, want)
		}
	}
}

// TestProfilesCollectedCountedOnce pins that umi.profiles.collected and
// the report's ProfilesCollected are one count, kept by the invocation
// body: they agree for a guest run (a System), a Replay of its stream,
// and an ingest session fed that stream.
func TestProfilesCollectedCountedOnce(t *testing.T) {
	cfg := traceSessionConfig(0, 0)
	_, stream := emitStream(t, cfg)
	_, base := startDaemon(t, DaemonConfig{})
	check := func(what string, snap metrics.Snapshot, rep *umi.Report) {
		t.Helper()
		got := snap.Counter("umi.profiles.collected")
		if rep.ProfilesCollected == 0 || got != uint64(rep.ProfilesCollected) {
			t.Errorf("%s: umi.profiles.collected = %d, report ProfilesCollected = %d",
				what, got, rep.ProfilesCollected)
		}
	}
	served := func(what, id, action string, body []byte) {
		t.Helper()
		code, data := doReq(t, http.MethodPost, base+"/sessions/"+id+"/"+action, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, body %.200s", what, code, data)
		}
		var res RunResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var snap metrics.Snapshot
		decodeView(t, base, id, "metrics", &snap)
		check(what, snap, res.Report)
	}
	served("run session", createSession(t, base, cfg), "run", nil)
	served("ingest session", createIngestSession(t, base, 0), "ingest", stream)

	dec := wire.NewDecoder(bytes.NewReader(stream))
	h, err := dec.Header()
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := umi.ConfigFromWireHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	rp := umi.NewReplay(rcfg)
	if _, err := rp.Consume(dec); err != nil {
		t.Fatal(err)
	}
	check("replay", rp.Metrics().Snapshot(), rp.Report())
}
