// Command perfbench is the repository's whole-run benchmark. It drives the
// system through its public entry points (vm.New, rio.NewRuntime,
// umi.Attach, the wire decoder, introspect.ReplayStream, RunStandalone,
// ParseSessionConfig and the umid daemon's handler) on one of two
// workloads, checks every output against a reference taken in setup, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: the end-to-end metrics of an untraced run, or
// with -trace 1 the per-layer metrics of a separate traced run.
//
//	go run . -workload profile -seed 1 -seconds 8 -trace 0
//
// Workloads (METRICS.md gives the reasons and the layer map):
//
//	profile   whole UMI runs of two guests from each of the six suites,
//	          one at a time, analyzer inline
//	ingest    closed-loop uploads of recorded umi-profile/v2 streams to an
//	          in-process umid over loopback HTTP, 2 clients
//
// Seed 1 is the default; seed 7 is held out for checking gain claims.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics BENCHMARK.json bounds: defined on every
// workload and never 0. An untraced run's JSON line carries exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"guest_mips", "MIPS"},
	{"refs_per_s", "refs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// reported are the remaining whole-run metrics, printed by every run that
// defines them and left out of the JSON line: error_rate is 0 on a healthy
// run, and the accuracy metrics are defined on profile only.
var reported = []metricDef{
	{"error_rate", "ratio"},
	{"model_overhead_pct", "%"},
	{"miss_corr", "r"},
	{"delinquent_recall", "ratio"},
}

// perLayer are the traced run's metrics. Every traced run carries all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"vm.ns_per_instr", "ns/instr"},
	{"cache.ns_per_access", "ns/access"},
	{"cache.accesses_per_instr", "accesses/instr"},
	{"cache.l2_miss_ratio", "ratio"},
	{"rio.ns_per_instr", "ns/instr"},
	{"rio.dispatches_per_kinstr", "1/kinstr"},
	{"rio.fragments_built", "count"},
	{"rio.sample_hit_frac", "ratio"},
	{"umi.ns_per_instr", "ns/instr"},
	{"umi.callback_ms", "ms"},
	{"umi.refs_per_kinstr", "refs/kinstr"},
	{"umi.profiled_frac", "ratio"},
	{"umi.invocations", "count"},
	{"umi.replay_ns_per_ref", "ns/ref"},
	{"wire.decode_ns_per_ref", "ns/ref"},
	{"wire.bytes_per_ref", "B/ref"},
	{"introspect.handler_ms.create", "ms"},
	{"introspect.handler_ms.ingest", "ms"},
	{"introspect.handler_ms.delete", "ms"},
	{"introspect.wait_ms", "ms"},
	{"introspect.http_errors", "count"},
	{"introspect.parse_ms", "ms"},
	{"introspect.render_ms", "ms"},
	{"introspect.response_kb", "KB"},
	{"introspect.cotenant_ms", "ms"},
	{"introspect.goroutines_leaked", "count"},
	{"introspect.sessions_live", "count"},
	{"go.alloc_bytes_per_instr", "B/instr"},
	{"go.alloc_bytes_per_ref", "B/ref"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// config sizes one run. fullSize is what the command runs; the self-tests
// shrink it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string

	// Setup repeats at least setups times and until it has taken
	// setupFloor in all (at most maxSetups times); setup_s is the median,
	// so a cheap setup is repeated more until its median settles.
	setups     int
	setupFloor time.Duration
	maxInputs  int // cap on guests or streams (0: none)

	// corrupt flips a byte of every setup reference after setup, so every
	// output check fails: the self-tests' proof that the checks bite.
	corrupt bool
}

func fullSize() config {
	return config{spanDir: ".bench_build/spans", setups: 3, setupFloor: 3 * time.Second}
}

// result is what a workload hands back: operation accounting, metric
// values by name, and the digest of the reference outputs every checked
// output had to equal. Where metrics holds timings scaled to the
// reference host speed, raw holds them as measured and hostSpeed is the
// mean calibration reading.
type result struct {
	attempted, failed int
	metrics, raw      map[string]float64
	hostSpeed         float64
	digest            string
}

var runners = map[string]func(config, io.Writer) (*result, error){
	"profile": runProfile,
	"ingest":  runIngest,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := fullSize()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "profile or ingest")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is derived from (7 is held out for gain claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "usage: perfbench -workload profile|ingest [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	if err := execute(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload and prints its metric lines and the final JSON
// object.
func execute(cfg config, out io.Writer) error {
	runner, ok := runners[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (profile, ingest)", cfg.workload)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	res, err := runner(cfg, out)
	if err != nil {
		return err
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["error_rate"] = ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(out, "outputs sha256:%s (every checked output equals these references)\n", res.digest)
	if res.hostSpeed > 0 {
		fmt.Fprintf(out, "host speed %.4g M calibration ops/s: timings with a raw line are scaled to %g\n",
			res.hostSpeed, refSpeed)
	}

	emit := endToEnd
	if cfg.trace {
		emit = perLayer
		for _, m := range perLayer {
			if _, ok := res.metrics[m.name]; !ok {
				res.metrics[m.name] = 0 // a layer this workload does not exercise
			}
		}
	}
	for _, defs := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, m := range defs {
			if v, ok := res.metrics[m.name]; ok {
				fmt.Fprintf(out, "metric %-30s %16.6g %s\n", m.name, v, m.unit)
			}
			if v, ok := res.raw[m.name]; ok {
				fmt.Fprintf(out, "raw    %-30s %16.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	vals := make(map[string]metricValue, len(emit))
	for _, m := range emit {
		vals[m.name] = metricValue{Value: res.metrics[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, vals})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// prepared is one setup's product: the inputs and references a measured
// phase runs against.
type prepared interface {
	// digest identifies the references; repeated setups must agree.
	digest() string
	close()
}

// maxSetups caps setup repetitions.
const maxSetups = 20

// setupRepeated performs setup as cfg's setups and setupFloor ask, keeps
// the last product and returns the median setup time. Setup is
// deterministic in the seed, so every repetition must produce the same
// references. The peak-RSS mark restarts once setup is done, so
// peak_rss_mb covers the measured phase.
func setupRepeated[S prepared](cfg config, out io.Writer, setup func() (S, error)) (S, float64, error) {
	var keep, none S
	var times []float64
	var total time.Duration
	for i := 0; i < max(cfg.setups, 1) || total < cfg.setupFloor && i < maxSetups; i++ {
		t0 := time.Now()
		st, err := setup()
		if err == nil {
			d := time.Since(t0)
			total += d
			times = append(times, d.Seconds())
			if i > 0 && keep.digest() != st.digest() {
				st.close()
				err = fmt.Errorf("setup %d produced different references", i+1)
			}
		}
		if i > 0 {
			keep.close()
		}
		if err != nil {
			return none, 0, err
		}
		keep = st
	}
	// Start the measured phase from a collected heap, not setup's garbage.
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(out, "peak_rss_mb covers setup too: %v\n", err)
	}
	return keep, quantile(times, 0.5), nil
}

// digestOf hashes reference outputs in input order.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corruptAll flips the last byte of every reference (the corrupt hook).
func corruptAll(refs ...[]byte) {
	for _, r := range refs {
		if len(r) > 0 {
			r[len(r)-1] ^= 0xff
		}
	}
}
