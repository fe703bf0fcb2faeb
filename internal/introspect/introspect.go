// Package introspect is the runtime's live observation surface: the umid
// daemon (daemon.go), which serves every profiling session — run by the
// daemon, ingested from a recorded stream, or adopted from the calling
// process, as `umiprof -http` does with its own run — through one route
// table.
//
// The paper's position is that introspection should be cheap enough to
// leave on in production; this package is the operational payoff — point a
// browser or a scraper at a running profiler and watch it profile itself.
// Every session answers the same views under /sessions/{id}/:
//
//	report           the completed RunResult (409 until the run is done)
//	metrics          current metrics snapshot (JSON)
//	metrics/delta    change since the previous metrics/delta scrape (JSON)
//	history          profile-history ring: per-invocation window summaries
//	                 with churn and phase-change flags (JSON)
//	overhead         per-stage self-overhead attribution (JSON)
//	events           recent event-ring contents with drop accounting (JSON)
//	events/timeline  deterministic plain-text timeline
//	events/trace     Chrome trace-event JSON (load in Perfetto)
//
// beside the fleet routes (/metrics/prom, /fleet/*) and /debug/pprof/.
// Views only read atomics (the metrics registry, the event ring) and
// mutex-guarded rings, so serving concurrently with a running guest is
// safe and perturbs nothing: the guest never blocks on an observer.
package introspect

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
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
