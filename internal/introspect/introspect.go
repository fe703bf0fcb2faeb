// Package introspect is the runtime's live observation surface: a small
// stdlib-only HTTP server exposing the self-observability metrics and the
// structured event timeline of a running (or finished) UMI session.
//
// The paper's position is that introspection should be cheap enough to
// leave on in production; this package is the operational payoff — point a
// browser or a scraper at a running profiler and watch it profile itself:
//
//	/metrics          current metrics snapshot (JSON)
//	/metrics/delta    change since the previous /metrics/delta scrape (JSON)
//	/metrics/prom     Prometheus text exposition: full registry + latest
//	                  phase-window gauges (scrape this from Prometheus)
//	/history          profile-history ring: per-invocation window summaries
//	                  with churn and phase-change flags (JSON)
//	/events           recent ring contents with drop accounting (JSON)
//	/events/timeline  deterministic plain-text timeline
//	/events/trace     Chrome trace-event JSON (load in Perfetto)
//	/debug/pprof/     the Go runtime's own profiles
//
// Handlers only read atomics (the metrics registry, the event ring), so
// serving concurrently with a running guest is safe and perturbs nothing:
// the guest never blocks on an observer. The metrics source is pulled per
// request; pass the session's live snapshot function, not a stale copy.
package introspect

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"umi/internal/metrics"
	"umi/internal/tracelog"
	"umi/internal/umi"
)

// Sources bundles one session's observability taps: the live metrics
// snapshot function, the event ring, and the live history snapshot
// function. A Server holds the current Sources behind an atomic pointer so
// the wired session can be swapped (or torn down) while scrapes are in
// flight: a handler resolves the pointer once per request and works from
// that consistent bundle, never from fields mid-replacement.
type Sources struct {
	// Metrics returns the current self-observability snapshot. It is
	// called once per request and must be safe from any goroutine (the
	// session's LiveMetricsSnapshot, not the draining MetricsSnapshot).
	Metrics func() metrics.Snapshot
	// Events is the session's event ring (may be nil).
	Events *tracelog.Log
	// History returns the current profile-history snapshot. Like Metrics
	// it is called once per request and must be safe from any goroutine —
	// the session's LiveHistory, which never drains the pipeline, so a
	// scrape cannot block or reorder guest progress. Nil serves an empty
	// (schema-stamped) view.
	History func() umi.HistoryView
	// Overhead returns the current per-stage self-overhead attribution —
	// the session's LiveOverhead, assembled purely from the registry, so
	// it is safe from any goroutine and never touches guest-owned state.
	// Nil serves an empty report.
	Overhead func() *umi.OverheadReport
}

// Server serves one session's observability state. Zero-value fields are
// legal: a nil Metrics source serves empty snapshots, a nil Events log
// serves an empty timeline. The construction-time fields seed the initial
// wiring; SetSources replaces the whole bundle atomically at any time
// (e.g. when the profiled session is being torn down), so a scrape racing
// a teardown sees either the old session or the empty state — never a
// half-cleared mix.
type Server struct {
	// Metrics, Events, History are the construction-time sources — see
	// Sources for their contracts. They are read only until the first
	// SetSources call; after that the atomic bundle wins.
	Metrics  func() metrics.Snapshot
	Events   *tracelog.Log
	History  func() umi.HistoryView
	Overhead func() *umi.OverheadReport

	src atomic.Pointer[Sources]

	// delta state: the snapshot taken by the previous /metrics/delta
	// request, so each scrape reports one interval.
	mu   sync.Mutex
	prev metrics.Snapshot
}

// SetSources atomically replaces the server's observability sources. A nil
// argument detaches the current session: subsequent scrapes serve empty
// payloads. Safe to call concurrently with in-flight requests — each
// request resolved its bundle once and finishes against it.
func (s *Server) SetSources(src *Sources) {
	if src == nil {
		src = &Sources{}
	}
	s.src.Store(src)
}

// sources resolves the current bundle: the atomically-swapped one if
// SetSources has run, else a view of the construction-time fields.
func (s *Server) sources() *Sources {
	if p := s.src.Load(); p != nil {
		return p
	}
	return &Sources{Metrics: s.Metrics, Events: s.Events, History: s.History,
		Overhead: s.Overhead}
}

func (s *Server) snapshot() metrics.Snapshot {
	if src := s.sources(); src.Metrics != nil {
		return src.Metrics()
	}
	return metrics.Snapshot{}
}

func (s *Server) history() umi.HistoryView {
	if src := s.sources(); src.History != nil {
		return src.History()
	}
	return (*umi.History)(nil).View()
}

func (s *Server) overhead() *umi.OverheadReport {
	if src := s.sources(); src.Overhead != nil {
		return src.Overhead()
	}
	return &umi.OverheadReport{Schema: umi.OverheadSchema}
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.snapshot())
	})
	mux.HandleFunc("/metrics/delta", func(w http.ResponseWriter, r *http.Request) {
		cur := s.snapshot()
		s.mu.Lock()
		d := cur.Diff(s.prev)
		s.prev = cur
		s.mu.Unlock()
		writeJSON(w, d)
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		metrics.WritePrometheus(w, s.snapshot())
		umi.WriteHistoryProm(w, s.history())
		umi.WriteOverheadProm(w, s.overhead())
	})
	mux.HandleFunc("/overhead", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.overhead())
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.history())
	})
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/events/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		elog := s.sources().Events
		fmt.Fprint(w, tracelog.Timeline(elog.Events(), elog.Drops()))
	})
	mux.HandleFunc("/events/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		tracelog.WriteChromeTrace(w, s.sources().Events.Events())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `umi runtime introspection

/metrics          current self-observability snapshot (JSON)
/metrics/delta    change since the previous /metrics/delta scrape (JSON)
/metrics/prom     Prometheus text exposition (registry + phase gauges)
/history          profile-history windows with phase-change flags (JSON)
/overhead         per-stage self-overhead attribution (JSON)
/events           recent lifecycle events (JSON; ?n=100 limits)
/events/timeline  deterministic plain-text timeline
/events/trace     Chrome trace-event JSON (open in Perfetto)
/debug/pprof/     Go runtime profiles
`)
}

// eventsPayload is the /events response: ring accounting plus the
// retained events, oldest first.
type eventsPayload struct {
	Total  uint64           `json:"total"`
	Drops  uint64           `json:"drops"`
	Cap    int              `json:"cap"`
	Events []tracelog.Event `json:"events"`
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	elog := s.sources().Events
	evs := elog.Recent(n)
	if evs == nil {
		evs = []tracelog.Event{}
	}
	writeJSON(w, eventsPayload{
		Total: elog.Total(), Drops: elog.Drops(),
		Cap: elog.Cap(), Events: evs,
	})
}

// Serve starts the server on addr (e.g. ":8080", "127.0.0.1:0") and
// returns the bound listener address and a stop function that shuts the
// server down and waits for it to exit. Serving happens on a background
// goroutine; the caller's thread is never involved.
func (s *Server) Serve(addr string) (string, func(), error) {
	return serveHandler(addr, s.Handler())
}

// stopGrace bounds how long a stop function waits for responses already
// in flight before closing their connections.
const stopGrace = 2 * time.Second

// The header and idle timeouts bound what a silent client can hold: a
// connection that stalls inside its request header, or idles between
// requests, is closed instead of pinning a goroutine for good. There is
// deliberately no read or write timeout: live-tailed ingest bodies stream
// for a whole guest run, and /run responses wait for one. Variables so
// tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveHandler binds addr, serves h on a background goroutine, and
// returns the bound address plus a stop function that shuts the server
// down and waits for the serving goroutine to exit.
func serveHandler(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := func() {
		// A response is written out after its handler returns — after a
		// drained run has already signalled completion — so stop lets
		// in-flight responses finish before closing what is left.
		ctx, cancel := context.WithTimeout(context.Background(), stopGrace)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	}
	return ln.Addr().String(), stop, nil
}
