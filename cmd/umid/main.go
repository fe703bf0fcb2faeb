// Command umid is the UMI profiling daemon: a long-lived service
// multiplexing many concurrent guest profiling sessions, each with its
// own analyzer. Clients create sessions over HTTP, run registered
// workloads or submitted address-trace streams, and scrape every
// session's views (report, metrics, history, overhead, events) and a
// fleet-wide Prometheus exposition.
//
// Usage:
//
//	umid [-http addr] [-max-sessions n]
//
// The daemon runs until SIGINT/SIGTERM, then drains gracefully: new work
// is refused with 503 and in-flight session runs complete. Each session's
// results are byte-identical to the same configuration run standalone
// under umiprof — co-tenancy never perturbs a profile.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"umi/internal/introspect"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-shutdown
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is main's guts with the process edges (args, streams, exit status,
// shutdown signal) injected, so the end-to-end tests drive the real
// daemon path in-process.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("umid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "127.0.0.1:0", "address to serve the control plane on")
	maxSessions := fs.Int("max-sessions", introspect.DefaultMaxSessions,
		"concurrent session cap; creates past it are rejected with 429")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: umid [flags]   (sessions are created over HTTP)")
		return 2
	}

	d := introspect.NewDaemon(introspect.DaemonConfig{MaxSessions: *maxSessions})
	addr, stopServe, err := d.Serve(*httpAddr)
	if err != nil {
		fmt.Fprintf(stderr, "umid: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "umid: control plane at http://%s/ (max %d sessions)\n", addr, *maxSessions)

	<-stop
	fmt.Fprintln(stderr, "umid: draining: refusing new work, waiting for in-flight runs")
	d.Shutdown()
	stopServe()
	fmt.Fprintln(stderr, "umid: drained, exiting")
	return 0
}
