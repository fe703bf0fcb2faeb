// Command umiprof runs one workload under the UMI runtime and prints the
// online profiling results: the delinquent load set, discovered strides,
// per-operation mini-simulation statistics, and overhead accounting — the
// view a runtime optimizer would act on.
//
// Usage:
//
//	umiprof [-machine p4|k7] [-hwpf] [-swpf] [-no-sampling] [-workers n] [-top n]
//	        [-metrics] [-metrics-json file] [-overhead] [-trace-out file]
//	        [-history] [-history-out file] [-emit file] [-emit-format 1|2]
//	        [-emit-live host:port] [-live-window n]
//	        [-http addr] [-http-linger d] <workload>
//	umiprof -ingest file [-workers n]             replay a recorded stream locally
//	umiprof -ingest file -ingest-addr host:port   ship it to a umid daemon
//	umiprof -transcode file -o file [-emit-format 1|2]   re-encode a recording
//	umiprof -list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"umi/internal/harness"
	"umi/internal/introspect"
	"umi/internal/prefetch"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's guts with the process edges (args, streams, exit status)
// injected, so the end-to-end tests can drive the real CLI path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("umiprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "p4", "hardware model: p4 or k7")
	hwpf := fs.Bool("hwpf", false, "enable hardware prefetchers (P4 only)")
	swpf := fs.Bool("swpf", false, "enable the online software prefetcher")
	noSampling := fs.Bool("no-sampling", false, "instrument every trace at creation")
	workers := fs.Int("workers", 1,
		"at >= 2 profiles are analyzed on one sequencer goroutine off the guest thread; below 2 inline (same results)")
	top := fs.Int("top", 10, "top missing operations to print")
	ws := fs.Bool("ws", false, "report working-set and reuse-distance characterization")
	patterns := fs.Bool("patterns", false, "classify reference patterns per operation")
	whatIf := fs.Bool("whatif", false, "mini-simulate alternative cache sizes over the same profiles")
	showMetrics := fs.Bool("metrics", false, "append the runtime's self-overhead metrics snapshot")
	showOverhead := fs.Bool("overhead", false,
		"append the per-stage self-overhead attribution (modelled cycles + measured wall)")
	metricsJSON := fs.String("metrics-json", "", "write the metrics snapshot as JSON to this file")
	traceOut := fs.String("trace-out", "",
		"write the run's event timeline as Chrome trace-event JSON to this file (open in Perfetto)")
	showHistory := fs.Bool("history", false,
		"append the per-invocation phase history (window miss ratios, delinquent-set churn)")
	historyOut := fs.String("history-out", "",
		"write the profile-history snapshot as JSON to this file")
	httpAddr := fs.String("http", "",
		"serve live introspection of the run as session s1 (/sessions/s1/metrics, /sessions/s1/events, ...) on this address")
	httpLinger := fs.Duration("http-linger", 0,
		"keep the -http server up this long after the report prints (0: stop immediately)")
	emitOut := fs.String("emit", "",
		"record the run's umi-profile telemetry stream to this file (replayable via -ingest)")
	emitFormat := fs.Int("emit-format", 2,
		"wire format version written by -emit, -emit-live, and -transcode: 1 or 2 (compressed)")
	emitLive := fs.String("emit-live", "",
		"stream telemetry live to a umid daemon at this address while the guest runs; appends the daemon's RunResult JSON")
	liveWindow := fs.Int("live-window", 64,
		"with -emit-live: flow-control window (in-flight frames before the producer backs off)")
	ingestIn := fs.String("ingest", "",
		"replay a recorded umi-profile stream instead of running a workload; prints the RunResult JSON")
	ingestAddr := fs.String("ingest-addr", "",
		"with -ingest: POST the stream to a umid daemon at this address instead of replaying locally")
	transcodeIn := fs.String("transcode", "",
		"re-encode a recorded stream to -emit-format and write it to -o; replay reports stay byte-identical")
	transcodeOut := fs.String("o", "", "output file for -transcode")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *emitFormat != 1 && *emitFormat != 2 {
		fmt.Fprintf(stderr, "umiprof: -emit-format must be 1 or 2, got %d\n", *emitFormat)
		return 2
	}
	if *machine != "p4" && *machine != "k7" {
		fmt.Fprintf(stderr, "umiprof: -machine must be p4 or k7, got %q\n", *machine)
		return 2
	}
	newEncoder := func(w io.Writer) *wire.Encoder {
		if *emitFormat == 1 {
			return wire.NewEncoder(w)
		}
		return wire.NewEncoderV2(w)
	}

	if *transcodeIn != "" {
		return runTranscode(*transcodeIn, *transcodeOut, *emitFormat, stderr)
	}
	if *ingestIn != "" {
		return runIngest(*ingestIn, *ingestAddr, *workers, stdout, stderr)
	}
	if *ingestAddr != "" {
		fmt.Fprintln(stderr, "umiprof: -ingest-addr requires -ingest")
		return 2
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-16s %-9s %s\n", w.Name, w.Suite, w.Class)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: umiprof [flags] <workload>   (umiprof -list to enumerate)")
		return 2
	}
	w, ok := workloads.ByName(fs.Arg(0))
	if !ok {
		fmt.Fprintf(stderr, "umiprof: unknown workload %q\n", fs.Arg(0))
		return 1
	}

	var plat = harness.P4
	if *machine == "k7" {
		plat = harness.K7
	}
	cfg := harness.UMIParams(plat)
	cfg.UseSampling = !*noSampling
	cfg.AnalyzerWorkers = *workers

	h := plat.Hierarchy(*hwpf)
	m := vm.New(w.Program(), h)
	rt := rio.NewRuntime(m)
	sys := umi.Attach(rt, cfg)
	// Stream emission is observational (it records analyzer inputs on the
	// guest thread before analysis), so stdout stays byte-identical with
	// or without -emit. -emit-live ships the same frames to a daemon as
	// they are encoded instead of (or as well as, on a different session)
	// writing a file — one emission sink at a time.
	if *emitOut != "" && *emitLive != "" {
		fmt.Fprintln(stderr, "umiprof: -emit and -emit-live are mutually exclusive")
		return 2
	}
	var emitEnc *wire.Encoder
	var emitFile *os.File
	var shipper *introspect.LiveShipper
	if *emitOut != "" {
		f, err := os.Create(*emitOut)
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: emit: %v\n", err)
			return 1
		}
		emitFile = f
		emitEnc = newEncoder(f)
		emitEnc.Header(umi.WireHeader(&cfg, w.Name, *machine))
		sys.EnableWireEmit(emitEnc)
	}
	if *emitLive != "" {
		sh, err := introspect.NewLiveShipper(*emitLive, introspect.LiveConfig{
			Workers: *workers,
			Window:  *liveWindow,
		})
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: emit-live: %v\n", err)
			return 1
		}
		shipper = sh
		emitEnc = newEncoder(sh)
		emitEnc.SetFrameHook(sh.FrameEnd)
		emitEnc.Header(umi.WireHeader(&cfg, w.Name, *machine))
		sys.EnableWireEmit(emitEnc)
		fmt.Fprintf(stderr, "umiprof: live-tailing telemetry into session %s at %s\n", sh.SessionID(), *emitLive)
	}
	// The event timeline and the HTTP server are purely observational:
	// neither touches modelled state, so everything printed to stdout is
	// byte-identical with or without them (stderr carries their notes).
	var elog *tracelog.Log
	if *traceOut != "" || *httpAddr != "" {
		elog = sys.EnableEventTrace(0)
	}
	// -http serves the run as the one session of an in-process daemon, so
	// it answers the same views as any umid session; its report appears
	// once the run is done.
	var finish func(*introspect.RunResult)
	if *httpAddr != "" {
		d := introspect.NewDaemon(introspect.DaemonConfig{MaxSessions: 1})
		defer d.Shutdown()
		// A fresh daemon always admits its first session.
		id, fin, _ := d.Adopt(w.Name, sys)
		finish = fin
		addr, stop, err := d.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: http: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "umiprof: introspection server at http://%s/sessions/%s/\n", addr, id)
		defer stop()
	}
	var opt *prefetch.Optimizer
	if *swpf {
		opt = prefetch.NewOptimizer(prefetch.DefaultConfig)
		sys.OnAnalyzed = opt.Hook()
	}
	var wset *umi.WorkingSet
	if *ws {
		wset = umi.NewWorkingSet(plat.L2.LineSize)
		sys.AddConsumer(wset)
	}
	var census *umi.PatternCensus
	if *patterns {
		census = umi.NewPatternCensus()
		sys.AddConsumer(census)
	}
	var explorer *umi.WhatIf
	if *whatIf {
		quarter, half, double := plat.L2, plat.L2, plat.L2
		quarter.Size /= 4
		quarter.Name = "L2/4"
		half.Size /= 2
		half.Name = "L2/2"
		double.Size *= 2
		double.Name = "L2x2"
		explorer = umi.NewWhatIf(cfg.WarmupRows, quarter, half, plat.L2, double)
		sys.AddConsumer(explorer)
	}
	if err := rt.Run(harness.MaxInstrs); err != nil {
		fmt.Fprintf(stderr, "umiprof: %v\n", err)
		return 1
	}
	sys.Finish()
	var liveRes *introspect.RunResult
	if emitEnc != nil {
		sys.EmitWireTail(emitEnc, h)
		err := emitEnc.Flush()
		if emitFile != nil {
			if cerr := emitFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "umiprof: emit: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "umiprof: wrote telemetry stream to %s\n", *emitOut)
		}
		if shipper != nil {
			res, cerr := shipper.Close()
			if err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "umiprof: emit-live: %v\n", err)
				return 1
			}
			liveRes = res
			fmt.Fprintf(stderr, "umiprof: daemon acknowledged live session %s\n", shipper.SessionID())
		}
	}
	rep := sys.Report()
	if finish != nil {
		finish(&introspect.RunResult{Report: rep, History: sys.History(),
			HWMissRatio: h.L2Stats.MissRatio(), Cycles: rt.TotalCycles(), Instrs: m.Instrs})
	}

	fmt.Fprintf(stdout, "workload:   %s (%s; %s)\n", w.Name, w.Suite, w.Class)
	fmt.Fprintf(stdout, "platform:   %s (hw prefetch %v)\n", plat.Name, *hwpf && plat.HasHWPrefetch)
	fmt.Fprintf(stdout, "instrs:     %d guest, %d cycles (total %d with runtime overhead)\n",
		m.Instrs, m.Cycles, rt.TotalCycles())
	fmt.Fprintf(stdout, "hardware:   L2 %s\n", &h.L2Stats)
	fmt.Fprintf(stdout, "umi:        %s\n", rep)
	fmt.Fprintf(stdout, "traces:     %d seen, %d instrument events, %d blocks / %d traces built\n",
		rep.TracesSeen, rep.InstrumentEvents, rt.BlocksBuilt, rt.TracesBuilt)
	fmt.Fprintf(stdout, "analysis:   %d invocations, %d refs simulated, %d cache flushes\n",
		rep.AnalyzerInvocations, rep.SimulatedRefs, rep.Flushes)
	fmt.Fprintf(stdout, "sim ratio:  %.4f (hardware %.4f)\n", rep.SimMissRatio, h.L2Stats.MissRatio())

	fmt.Fprintf(stdout, "\ndelinquent loads (|P| = %d):\n", len(rep.Delinquent))
	an := sys.Analyzer()
	for _, st := range an.TopMissers(*top) {
		if !rep.Delinquent[st.PC] {
			continue
		}
		line := fmt.Sprintf("  %#08x  miss ratio %.3f (%d/%d)", st.PC, st.MissRatio(), st.Misses, st.Accesses)
		if si, ok := rep.Strides[st.PC]; ok {
			line += fmt.Sprintf("  stride %+d bytes (%.0f%% confident)", si.Stride, 100*si.Confidence)
		}
		fmt.Fprintln(stdout, line)
	}

	fmt.Fprintf(stdout, "\ntop %d simulated missers:\n", *top)
	for _, st := range an.TopMissers(*top) {
		kind := "load"
		if !st.IsLoad {
			kind = "store"
		}
		fmt.Fprintf(stdout, "  %#08x  %-5s misses=%-8d accesses=%-8d ratio=%.3f\n",
			st.PC, kind, st.Misses, st.Accesses, st.MissRatio())
	}

	if opt != nil {
		fmt.Fprintf(stdout, "\nsoftware prefetches inserted (%d):\n", len(opt.Insertions))
		for _, ins := range opt.Insertions {
			fmt.Fprintf(stdout, "  %v\n", ins)
		}
	}

	if wset != nil {
		fmt.Fprintf(stdout, "\nworking set (profiled bursts): %v\n", wset)
	}
	if census != nil {
		fmt.Fprintf(stdout, "\n%s\n", census.Summary())
	}
	if explorer != nil {
		fmt.Fprintln(stdout, "\nwhat-if cache geometries over the same profiles:")
		for _, r := range explorer.Results() {
			fmt.Fprintf(stdout, "  %-6s %6dKB  sim miss ratio %.4f (%d/%d)\n",
				r.Config.Name, r.Config.Size/1024, r.MissRatio, r.Misses, r.Accesses)
		}
	}

	// Self-overhead surfaces come last so everything above is a byte-exact
	// prefix of a metrics-less run: collection is always on, these flags
	// only choose whether anyone looks.
	if *showMetrics || *metricsJSON != "" {
		snap := sys.MetricsSnapshot()
		if *showMetrics {
			fmt.Fprintf(stdout, "\nself-overhead metrics:\n%s", umi.FormatMetrics(snap))
		}
		if *metricsJSON != "" {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "umiprof: metrics: %v\n", err)
				return 1
			}
			if err := os.WriteFile(*metricsJSON, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(stderr, "umiprof: metrics: %v\n", err)
				return 1
			}
		}
	}
	if *showOverhead {
		rep := sys.Overhead()
		fmt.Fprintf(stdout, "\n%s%s", rep, rep.LiveString())
	}
	if *showHistory {
		hv := sys.History()
		fmt.Fprintf(stdout, "\n%s", umi.FormatHistory(hv.Windows))
	}
	if *historyOut != "" {
		hv := sys.History()
		data, err := json.MarshalIndent(hv, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: history: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*historyOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "umiprof: history: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "umiprof: wrote %d of %d windows to %s\n",
			len(hv.Windows), hv.Total, *historyOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: trace: %v\n", err)
			return 1
		}
		werr := tracelog.WriteChromeTrace(f, elog.Events())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "umiprof: trace: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stderr, "umiprof: wrote %d events (%d dropped) to %s\n",
			len(elog.Events()), elog.Drops(), *traceOut)
	}
	// The daemon's merged result for a live-tailed run — identical to what
	// -ingest of a recording of this run would print.
	if liveRes != nil {
		data, err := json.MarshalIndent(liveRes, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "umiprof: emit-live: %v\n", err)
			return 1
		}
		stdout.Write(append(data, '\n'))
	}
	if *httpAddr != "" && *httpLinger > 0 {
		fmt.Fprintf(stderr, "umiprof: introspection server up for another %s\n", *httpLinger)
		time.Sleep(*httpLinger)
	}
	return 0
}

// runTranscode re-encodes one recorded stream at the requested wire
// version. Decoding either file replays identically; v2 output gains
// per-frame compression and the shard manifest.
func runTranscode(in, out string, version int, stderr io.Writer) int {
	if out == "" {
		fmt.Fprintln(stderr, "umiprof: -transcode requires -o <file>")
		return 2
	}
	src, err := os.Open(in)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: transcode: %v\n", err)
		return 1
	}
	defer src.Close()
	dst, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: transcode: %v\n", err)
		return 1
	}
	terr := wire.Transcode(dst, src, byte(version))
	if cerr := dst.Close(); terr == nil {
		terr = cerr
	}
	if terr != nil {
		fmt.Fprintf(stderr, "umiprof: transcode: %v\n", terr)
		return 1
	}
	si, _ := os.Stat(in)
	so, _ := os.Stat(out)
	if si != nil && so != nil {
		fmt.Fprintf(stderr, "umiprof: transcoded %s (%d bytes) to v%d %s (%d bytes)\n",
			in, si.Size(), version, out, so.Size())
	}
	return 0
}

// runIngest replays a recorded umi-profile stream (v1 or v2): locally
// through umi.Replay (printing the RunResult JSON a daemon ingest would
// return),
// or — with addr — shipped to a umid daemon over POST
// /sessions/{id}/ingest, printing the daemon's response. Either way the
// output is byte-identical to the capture process's marshaled result.
func runIngest(path, addr string, workers int, stdout, stderr io.Writer) int {
	if addr != "" {
		return runIngestRemote(path, addr, workers, stdout, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	defer f.Close()
	res, err := introspect.ReplayStream(f, workers)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	stdout.Write(append(data, '\n'))
	return 0
}

// runIngestRemote creates an ingest session on the daemon at addr, POSTs
// the stream, prints the daemon's RunResult response, and deletes the
// session once the response is read, whether the upload succeeded or not,
// so a remote ingest never keeps one of the daemon's session slots.
func runIngestRemote(path, addr string, workers int, stdout, stderr io.Writer) int {
	stream, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cfgBody := fmt.Sprintf(`{"ingest": true, "workers": %d}`, workers)
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(cfgBody))
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: create session: %v\n", err)
		return 1
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusCreated {
		fmt.Fprintf(stderr, "umiprof: ingest: create session: status %d, body %s\n", resp.StatusCode, body)
		return 1
	}
	var inf struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &inf); err != nil || inf.ID == "" {
		fmt.Fprintf(stderr, "umiprof: ingest: create session: bad response %s\n", body)
		return 1
	}
	defer deleteSession(base, inf.ID, stderr)
	req, err := http.NewRequest(http.MethodPost, base+"/sessions/"+inf.ID+"/ingest", bytes.NewReader(stream))
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// v2 recordings carry a shard manifest; declaring it up front lets the
	// daemon detect a retried duplicate and make the upload idempotent.
	if m, ok, err := wire.ScanManifest(bytes.NewReader(stream)); err == nil && ok {
		req.Header.Set("X-Umi-Shard-Id", strconv.FormatUint(m.ShardID, 10))
		req.Header.Set("X-Umi-Shard-Frames", strconv.FormatUint(m.Frames, 10))
		req.Header.Set("X-Umi-Shard-Checksum", strconv.FormatUint(m.Checksum, 10))
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: %v\n", err)
		return 1
	}
	body, rerr = io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "umiprof: ingest: status %d, body %s\n", resp.StatusCode, body)
		return 1
	}
	fmt.Fprintf(stderr, "umiprof: ingested %d bytes into session %s at %s\n", len(stream), inf.ID, base)
	stdout.Write(body)
	return 0
}

// deleteSession deletes a daemon session. A failed DELETE is a note on
// stderr: the ingest's own outcome, already printed, stands.
func deleteSession(base, id string, stderr io.Writer) {
	req, err := http.NewRequest(http.MethodDelete, base+"/sessions/"+id, nil)
	if err == nil {
		var resp *http.Response
		if resp, err = http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "umiprof: ingest: delete session %s: %v\n", id, err)
	}
}
