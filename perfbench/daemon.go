package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"time"

	"umi/internal/introspect"
)

// The ingest workload's harness: an in-process umid at its defaults behind
// a loopback listener, driven by two closed-loop clients over at most two
// kept-alive connections.

// spanHeader carries "op/parent" span ids from a traced client request to
// the route-span wrapper around the daemon's handler.
const spanHeader = "X-Perfbench-Span"

type daemon struct {
	d       *introspect.Daemon
	handler http.Handler // the daemon's handler; traced runs wrap it in route spans
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	tr      *tracer

	mu sync.Mutex
	// httpErrors counts non-2xx responses to client requests by route.
	httpErrors map[string]int
	// The traced operations' session bodies and responses, checked and
	// timed on the client side once the closed loop is over.
	replies []reply
}

func startDaemon(tr *tracer) (*daemon, error) {
	d := introspect.NewDaemon(introspect.DaemonConfig{})
	h := d.Handler()
	if tr != nil {
		h = routeSpans(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	dm := &daemon{
		d: d, handler: h, srv: &http.Server{Handler: h}, served: make(chan struct{}),
		base:       "http://" + ln.Addr().String(),
		client:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		tr:         tr,
		httpErrors: map[string]int{},
	}
	go func() {
		defer close(dm.served)
		dm.srv.Serve(ln)
	}()
	return dm, nil
}

// close stops the listener and drains the daemon.
func (dm *daemon) close() {
	dm.client.CloseIdleConnections()
	dm.srv.Close()
	<-dm.served
	dm.d.Shutdown()
}

// routeSpans records a span per request around the daemon's handler when
// the request carries span ids; other requests pass straight through.
func routeSpans(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent uint64
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &op, &parent); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		route := path.Base(r.URL.Path) // "ingest"
		switch {
		case r.Method == http.MethodDelete:
			route = "delete"
		case r.URL.Path == "/sessions":
			route = "create"
		}
		sp := tr.start(op, parent, "handler."+route)
		next.ServeHTTP(w, r)
		tr.finish(sp)
	})
}

// request is one call of a session operation.
type request struct {
	route, method, path string
	body                []byte
	header              http.Header
}

// call sends req over HTTP. A traced call (op != 0) records a client span
// under parent and passes its id to the handler's span.
func (dm *daemon) call(op, parent uint64, req request) (int, []byte, error) {
	hr, err := http.NewRequest(req.method, dm.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range req.header {
		hr.Header[k] = v
	}
	var sp span
	if op != 0 {
		sp = dm.tr.start(op, parent, "client."+req.route)
		hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, sp.ID))
	}
	resp, err := dm.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if op != 0 {
		dm.tr.finish(sp)
	}
	if resp.StatusCode/100 != 2 {
		dm.mu.Lock()
		dm.httpErrors[req.route]++
		dm.mu.Unlock()
	}
	return resp.StatusCode, data, err
}

// direct serves req by calling the handler in-process, without HTTP: the
// handler rung of the traced ingest ladder.
func (dm *daemon) direct(op, parent uint64, req request) (int, []byte, error) {
	hr := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
	for k, v := range req.header {
		hr.Header[k] = v
	}
	hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, parent))
	rec := httptest.NewRecorder()
	dm.handler.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes(), nil
}

// session is one closed-loop operation: create a session from cfgBody,
// POST action (its route, "ingest") to it, then DELETE it. The
// latency runs from the create request to the action's response. send is
// call or direct.
func (dm *daemon) session(send func(op, parent uint64, req request) (int, []byte, error),
	op, parent uint64, cfgBody []byte, action request) (time.Duration, []byte, error) {
	t0 := time.Now()
	code, data, err := send(op, parent, request{route: "create", method: http.MethodPost, path: "/sessions",
		body: cfgBody, header: http.Header{"Content-Type": {"application/json"}}})
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", code, firstLine(data))
	}
	var inf struct {
		ID string `json:"id"`
	}
	if err == nil && (json.Unmarshal(data, &inf) != nil || inf.ID == "") {
		err = fmt.Errorf("bad response %q", firstLine(data))
	}
	if err != nil {
		return 0, nil, fmt.Errorf("create: %w", err)
	}
	action.path = "/sessions/" + inf.ID + "/" + action.route
	code, body, err := send(op, parent, action)
	lat := time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, firstLine(body))
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", action.route, err)
	}
	dcode, data, derr := send(op, parent, request{route: "delete", method: http.MethodDelete, path: "/sessions/" + inf.ID})
	if derr == nil && dcode != http.StatusNoContent {
		derr = fmt.Errorf("status %d: %s", dcode, firstLine(data))
	}
	if err == nil && derr != nil {
		err = fmt.Errorf("delete: %w", derr)
	}
	return lat, body, err
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// loopStats is the outcome of a closed-loop phase.
type loopStats struct {
	attempted, failed int
	lats              []float64 // ms, per successful operation
	inputs            []int     // input index per successful operation
	// The traced and untraced halves of a traced run.
	traced, untraced []sample
	elapsed          time.Duration
	gc               goSample
	// goroutinesLeaked is the goroutine count once every session is
	// deleted, the connections are closed and the daemon is idle, minus
	// the count before the phase.
	goroutinesLeaked int
}

// closedLoop runs two clients against dm until the time is up (each
// finishes at least one operation), each sending its next operation only
// once the previous one completed. Each client runs the inputs [0, n) in
// successive permutations drawn from its own seeded stream, so every run
// serves the same mix whatever the seed; op runs one operation. In a
// traced run every other operation is traced, so the two halves give the
// tracing overhead under the same load.
func closedLoop(dm *daemon, d time.Duration, seed uint64, n int, traced bool,
	op func(input int, traced bool) (time.Duration, error), out io.Writer) loopStats {
	var st loopStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	goroutines := settledGoroutines()
	g0 := readGo()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng(seed, 100+uint64(c))
			var perm []int
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				if i%n == 0 {
					perm = r.Perm(n)
				}
				in := perm[i%n]
				tr := traced && i%2 == 0
				lat, err := op(in, tr)
				mu.Lock()
				st.attempted++
				switch {
				case err != nil:
					st.failed++
					reportFailure(out, st.failed, fmt.Sprintf("input %d", in), err)
				case tr:
					st.traced = append(st.traced, sample{in, ms(lat)})
				case traced:
					st.untraced = append(st.untraced, sample{in, ms(lat)})
				}
				if err == nil {
					st.lats = append(st.lats, ms(lat))
					st.inputs = append(st.inputs, in)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.gc = readGo().sub(g0)
	dm.client.CloseIdleConnections()
	st.goroutinesLeaked = settledGoroutines() - goroutines
	return st
}

// loopMetrics records the whole-run metrics of a closed-loop phase whose
// inputs carry instrs guest instructions and refs recorded references
// each, and returns the totals served.
func loopMetrics(st loopStats, instrs, refs func(int) float64, into map[string]float64) (sumInstrs, sumRefs float64) {
	for _, in := range st.inputs {
		sumInstrs += instrs(in)
		sumRefs += refs(in)
	}
	into["guest_mips"] = sumInstrs / st.elapsed.Seconds() / 1e6
	into["refs_per_s"] = sumRefs / st.elapsed.Seconds()
	into["latency_p50_ms"] = quantile(st.lats, 0.5)
	into["latency_p90_ms"] = quantile(st.lats, 0.9)
	return sumInstrs, sumRefs
}

// operation is one closed-loop operation over HTTP: session with action,
// whose response must equal want. A traced operation records its spans
// and also times, on the client side, the config parse the daemon
// performs and the rendering of the result it returns.
func (dm *daemon) operation(cfgBody []byte, action request, want []byte, traced bool) (time.Duration, error) {
	var op, root uint64
	var rootSpan span
	if traced {
		op = dm.tr.newOp()
		rootSpan = dm.tr.start(op, 0, "op."+action.route)
		root = rootSpan.ID
	}
	lat, body, err := dm.session(dm.call, op, root, cfgBody, action)
	if err == nil && !bytes.Equal(body, want) {
		err = errors.New("response differs from the reference")
	}
	if traced {
		dm.tr.finish(rootSpan)
		if err == nil {
			dm.mu.Lock()
			dm.replies = append(dm.replies, reply{op, root, cfgBody, body})
			dm.mu.Unlock()
		}
	}
	return lat, err
}

// reply is a traced operation's session body and response.
type reply struct {
	op, parent    uint64
	cfgBody, resp []byte
}

// clientSide times ParseSessionConfig on a traced operation's session
// body and json.MarshalIndent of the RunResult it got back, and checks the
// re-rendered result is the response. It runs after the closed loop, so
// the two halves of the loop differ only by their spans.
func (dm *daemon) clientSide(r reply) error {
	sp := dm.tr.start(r.op, r.parent, "parse")
	_, err := introspect.ParseSessionConfig(r.cfgBody)
	dm.tr.finish(sp)
	if err != nil {
		return err
	}
	var rr introspect.RunResult
	if err := json.Unmarshal(r.resp, &rr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	sp = dm.tr.start(r.op, r.parent, "render")
	again, err := renderResult(&rr)
	dm.tr.finish(sp)
	if err == nil && !bytes.Equal(again, r.resp) {
		err = errors.New("re-rendered result differs from the response")
	}
	return err
}

// renderResult renders a RunResult as the daemon's JSON responses do.
func renderResult(res *introspect.RunResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	return append(data, '\n'), err
}

// daemonLayerMetrics records the introspect layer's metrics from a traced
// closed-loop phase — per-route handler time on the HTTP path, the wait
// around it, the client-side costs, what co-tenancy adds over serial runs
// of the same inputs (serialMs), leaks and allocation — and prints the
// traced run's own headline. A client-side check that fails counts as a
// failed operation.
func daemonLayerMetrics(dm *daemon, st loopStats, sumInstrs, sumRefs float64, serialMs []float64,
	res *result, out io.Writer) {
	into := res.metrics
	var respBytes float64
	for _, r := range dm.replies {
		check(res, out, "client-side", dm.clientSide(r), nil, nil)
		respBytes += float64(len(r.resp))
	}
	spans := dm.tr.snapshot()
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	routes := map[string][]float64{}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "handler.") && strings.HasPrefix(p.Name, "client.") {
			routes[s.Name] = append(routes[s.Name], ms(s.dur()))
		}
	}
	var errs float64
	for _, r := range []string{"create", "ingest", "delete"} {
		into["introspect.handler_ms."+r] = quantile(routes["handler."+r], 0.5)
		errs += float64(dm.httpErrors[r])
		fmt.Fprintf(out, "route %s handler_p50_ms=%.4g http_errors=%d\n", r, into["introspect.handler_ms."+r], dm.httpErrors[r])
	}
	into["introspect.wait_ms"] = quantile(dm.tr.waits(), 0.5)
	into["introspect.http_errors"] = errs
	into["introspect.parse_ms"] = quantile(dm.tr.durations("parse"), 0.5)
	into["introspect.render_ms"] = quantile(dm.tr.durations("render"), 0.5)
	into["introspect.response_kb"] = ratio(respBytes, float64(len(dm.replies))) / 1024
	into["introspect.cotenant_ms"] = quantile(st.lats, 0.5) - quantile(serialMs, 0.5)
	into["introspect.goroutines_leaked"] = float64(st.goroutinesLeaked)
	into["introspect.sessions_live"] = float64(dm.d.SessionCount())
	goMetrics(st.gc, sumInstrs, sumRefs, into)
	into["trace.overhead_pct"] = overheadPct(st.traced, st.untraced)
	fmt.Fprintf(out, "traced headline guest_mips=%.6g refs_per_s=%.6g latency_p50_ms=%.4g latency_p90_ms=%.4g (%d traced, %d untraced operations)\n",
		into["guest_mips"], into["refs_per_s"], into["latency_p50_ms"], into["latency_p90_ms"], len(st.traced), len(st.untraced))
}

// sample is one operation's latency and the input it ran.
type sample struct {
	input int
	ms    float64
}

// overheadPct compares the traced half's latency with the untraced half's
// input by input, since inputs differ in cost: the geometric mean, over
// the inputs both halves served, of the ratio of their mean latencies.
func overheadPct(traced, untraced []sample) float64 {
	means := func(xs []sample) map[int]float64 {
		sum, n := map[int]float64{}, map[int]float64{}
		for _, x := range xs {
			sum[x.input] += x.ms
			n[x.input]++
		}
		for k := range sum {
			sum[k] /= n[k]
		}
		return sum
	}
	t, u := means(traced), means(untraced)
	var logs, count float64
	for k, tv := range t {
		if uv, ok := u[k]; ok {
			logs += math.Log(tv / uv)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return 100 * (math.Exp(logs/count) - 1)
}

// check counts one checked operation of a traced ladder.
func check(res *result, out io.Writer, what string, err error, got, want []byte) {
	res.attempted++
	if err == nil && !bytes.Equal(got, want) {
		err = errors.New("output differs from the reference")
	}
	if err != nil {
		res.failed++
		reportFailure(out, res.failed, what, err)
	}
}
