package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"umi/internal/cache"
	"umi/internal/harness"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/stats"
	"umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/workloads"
)

// The profile workload: whole UMI runs, one guest at a time, on the stack
// pkg/umi's Session.Run builds for its default Pentium 4 model with the
// analyzer inline. This is the headline number, the wall time of whole UMI
// runs; the VM, guest memory, the hierarchy, rio and UMI profile-fill do
// nearly all the work.

// profileMix is the guest mix: from each of the six suites one
// memory-bound guest and one that is mostly resident or control-bound.
// The mix is fixed because a seed-drawn dozen moves guest_mips and
// peak_rss_mb across seeds by more than any bound allows (METRICS.md);
// the seed fixes the order the measured phase runs the guests in.
var profileMix = []string{
	"179.art", "172.mgrid", // CFP2000
	"181.mcf", "197.parser", // CINT2000
	"em3d", "treeadd", // Olden
	"470.lbm", "444.namd", // CFP2006
	"471.omnetpp", "458.sjeng", // CINT2006
	"mysql", "apache", // LinuxApps
}

// assembleMix looks up the mix's guests (the first cfg.maxInputs of them)
// and assembles their programs, and returns how long the assembly took.
// workloads caches a guest's program for the rest of the process, so only
// the first setup would pay for assembly and setup_s, a median over
// setups, would leave it out; the runners add this time to it instead.
func assembleMix(cfg config) ([]*workloads.Workload, float64, error) {
	names := profileMix
	if cfg.maxInputs > 0 && len(names) > cfg.maxInputs {
		names = names[:cfg.maxInputs]
	}
	ws := make([]*workloads.Workload, len(names))
	for i, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, 0, fmt.Errorf("profile mix: no registered guest %q", name)
		}
		ws[i] = w
	}
	t0 := time.Now()
	parallel(len(ws), func(i int) error {
		ws[i].Program()
		return nil
	})
	return ws, time.Since(t0).Seconds(), nil
}

// umiOutput is what a full-stack run produces and the checks compare.
type umiOutput struct {
	report      []byte // the Report as JSON
	totalCycles uint64
	instrs      uint64
	l2          cache.LevelStats

	rep      *umi.Report
	history  umi.HistoryView
	counters rio.RuntimeCounters
}

func (o umiOutput) equal(p umiOutput) bool {
	return bytes.Equal(o.report, p.report) && o.totalCycles == p.totalCycles &&
		o.instrs == p.instrs && o.l2 == p.l2
}

// umiStack runs prog under the hierarchy, VM, rio and UMI with
// harness.UMIParams on the Pentium 4 model, as Session.Run does. workers
// picks the analyzer path (below 2: inline). cm, when set, is the counting
// model wrapping the run's hierarchy; cb, when set, accumulates the self
// time of the rio callbacks UMI installs.
func umiStack(prog *program.Program, workers int, cm *countingModel, cb *time.Duration) (umiOutput, error) {
	h := harness.P4.Hierarchy(false)
	var model vm.MemModel = h
	if cm != nil {
		cm.h = h
		model = cm
	}
	m := vm.New(prog, model)
	rt := rio.NewRuntime(m)
	cfg := harness.UMIParams(harness.P4)
	cfg.AnalyzerWorkers = workers
	sys := umi.Attach(rt, cfg)
	if cb != nil {
		onTrace, onSample := rt.OnTrace, rt.OnSample
		rt.OnTrace = func(f *rio.Fragment) {
			t0 := time.Now()
			onTrace(f)
			*cb += time.Since(t0)
		}
		rt.OnSample = func(f *rio.Fragment) {
			t0 := time.Now()
			onSample(f)
			*cb += time.Since(t0)
		}
	}
	if err := rt.Run(harness.MaxInstrs); err != nil {
		return umiOutput{}, err
	}
	sys.Finish()
	rep := sys.Report()
	js, err := json.Marshal(rep)
	if err != nil {
		return umiOutput{}, err
	}
	return umiOutput{report: js, totalCycles: rt.TotalCycles(), instrs: m.Instrs, l2: h.L2Stats,
		rep: rep, history: sys.History(), counters: rt.Counters()}, nil
}

// profileGuest is one guest of the mix and what setup measured of it.
type profileGuest struct {
	w    *workloads.Workload
	prog *program.Program
	// ref is the determinism reference: the same stack with
	// AnalyzerWorkers 2, whose outputs every inline run must equal.
	ref          umiOutput
	nativeCycles uint64
	nativeL2     cache.LevelStats
	cgMiss       float64 // Cachegrind's L2 miss ratio
	recall       float64 // of Cachegrind's 90%-coverage delinquent set
}

type profileState struct {
	guests []*profileGuest // in profileMix order
	order  []int           // the measured phase's order, drawn by the seed
}

func (s *profileState) digest() string {
	var parts [][]byte
	for _, g := range s.guests {
		parts = append(parts, []byte(g.w.Name), g.ref.report,
			[]byte(fmt.Sprint(g.ref.totalCycles, g.ref.instrs, g.ref.l2)))
	}
	return digestOf(parts...)
}

func (s *profileState) close() {}

// prepareGuest assembles the guest and takes its reference, native and
// Cachegrind runs; the reference run also warms the program.
func prepareGuest(w *workloads.Workload) (*profileGuest, error) {
	g := &profileGuest{w: w, prog: w.Program()}
	var err error
	if g.ref, err = umiStack(g.prog, 2, nil, nil); err != nil {
		return nil, fmt.Errorf("%s reference: %w", w.Name, err)
	}
	h := harness.P4.Hierarchy(false)
	m := vm.New(g.prog, h)
	if err := m.Run(harness.MaxInstrs); err != nil {
		return nil, fmt.Errorf("%s native: %w", w.Name, err)
	}
	if m.Instrs != g.ref.instrs {
		return nil, fmt.Errorf("%s: %d instructions natively, %d under UMI", w.Name, m.Instrs, g.ref.instrs)
	}
	g.nativeCycles, g.nativeL2 = m.Cycles, h.L2Stats
	cg, err := harness.RunCachegrind(w, harness.P4)
	if err != nil {
		return nil, err
	}
	g.cgMiss = cg.L2MissRatio()
	g.recall = stats.Recall(g.ref.rep.Delinquent, cg.DelinquentSet(0.90))
	return g, nil
}

func setupProfile(cfg config, mix []*workloads.Workload) (*profileState, error) {
	st := &profileState{guests: make([]*profileGuest, len(mix)), order: rng(cfg.seed, 1).Perm(len(mix))}
	err := parallel(len(mix), func(i int) error {
		g, err := prepareGuest(mix[i])
		st.guests[i] = g
		return err
	})
	return st, err
}

func runProfile(cfg config, out io.Writer) (*result, error) {
	mix, assembleS, err := assembleMix(cfg)
	if err != nil {
		return nil, err
	}
	st, setupS, err := setupRepeated(cfg, out, func() (*profileState, error) { return setupProfile(cfg, mix) })
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup assembly_s=%.4f per_setup_s=%.4f\n", assembleS, setupS)
	res := &result{metrics: map[string]float64{"setup_s": assembleS + setupS}, raw: map[string]float64{}}
	var slow, sim, hw, recalls []float64
	for _, gi := range st.order {
		g := st.guests[gi]
		slow = append(slow, float64(g.ref.totalCycles)/float64(g.nativeCycles))
		sim = append(sim, g.ref.rep.SimMissRatio)
		hw = append(hw, g.nativeL2.MissRatio())
		if g.cgMiss >= 0.01 {
			recalls = append(recalls, g.recall)
		}
		fmt.Fprintf(out, "input guest=%s suite=%s instrs=%d refs=%d hw_l2_miss=%.4f sim_miss=%.4f slowdown=%.4f recall=%.3f\n",
			g.w.Name, g.w.Suite, g.ref.instrs, g.ref.rep.SimulatedRefs, g.nativeL2.MissRatio(),
			g.ref.rep.SimMissRatio, slow[len(slow)-1], g.recall)
	}
	res.metrics["model_overhead_pct"] = 100 * (stats.GeoMean(slow) - 1)
	res.metrics["miss_corr"] = stats.Correlation(sim, hw)
	if len(recalls) > 0 {
		res.metrics["delinquent_recall"] = stats.Mean(recalls)
	}
	if cfg.corrupt {
		for _, g := range st.guests {
			corruptAll(g.ref.report)
		}
	}
	res.digest = st.digest()
	if cfg.trace {
		return res, traceProfile(cfg, st, res, out)
	}
	measureProfile(cfg, st, res, out)
	return res, nil
}

// measureProfile is the untraced measured phase: whole passes over the
// mix, one inline UMI run per guest, until the time is up, so every guest
// runs equally often.
func measureProfile(cfg config, st *profileState, res *result, out io.Writer) {
	clock := newRefClock()
	deadline := time.Now().Add(seconds(cfg.seconds))
	runs := make([]int, len(st.guests))
	raw := make([]time.Duration, len(st.guests))
	ref := make([]time.Duration, len(st.guests))
	passes := 0
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		for _, gi := range st.order {
			g := st.guests[gi]
			t0 := time.Now()
			o, err := umiStack(g.prog, 0, nil, nil)
			d := time.Since(t0)
			scaled := clock.scale(d)
			res.attempted++
			if err == nil && !o.equal(g.ref) {
				err = errors.New("outputs differ from the AnalyzerWorkers 2 reference")
			}
			if err != nil {
				res.failed++
				reportFailure(out, res.failed, g.w.Name, err)
				continue
			}
			runs[gi]++
			raw[gi] += d
			ref[gi] += scaled
		}
	}
	mixMetrics(st, runs, ref, res.metrics)
	mixMetrics(st, runs, raw, res.raw)
	res.hostSpeed = clock.speed()
	fmt.Fprintf(out, "measured runs=%d passes=%d\n", res.attempted, passes)
}

// mixMetrics records the profile rates and latencies from each guest's
// summed run time. Every guest weighs the same, also when some of its
// runs failed: rates are the mix's instructions and references over the
// sum of each guest's mean run time, and the latencies are quantiles of
// those means.
func mixMetrics(st *profileState, runs []int, busy []time.Duration, into map[string]float64) {
	var instrs, refs, mixTime float64
	var lats []float64
	for gi, g := range st.guests {
		if runs[gi] > 0 {
			mean := busy[gi].Seconds() / float64(runs[gi])
			instrs += float64(g.ref.instrs)
			refs += float64(g.ref.rep.SimulatedRefs)
			mixTime += mean
			lats = append(lats, 1e3*mean)
		}
	}
	into["guest_mips"] = ratio(instrs, mixTime) / 1e6
	into["refs_per_s"] = ratio(refs, mixTime)
	into["latency_p50_ms"] = quantile(lats, 0.5)
	into["latency_p90_ms"] = quantile(lats, 0.9)
}

// ladderSums is one traced pass over a set of guests: each rung's summed
// wall time and the counts the per-layer metrics divide by.
type ladderSums struct {
	vm, native, rio, umi, plain, callbacks time.Duration

	instrs, accesses, l2Accesses, l2Misses  float64
	dispatches, fragments, samples, hits    float64
	refs, profiled, candidates, invocations float64
	guests                                  int

	// Allocation and GC over the untraced reruns, and the work they did.
	gc               goSample
	gcInstrs, gcRefs float64
}

// climbRounds is how many times climb runs each rung, round-robin. A
// rung's time is its fastest round, so a burst of host noise in one round
// does not land in one layer's difference.
const climbRounds = 3

// climbed is what climb hands back for checking: the UMI rung's output,
// the untraced rerun's and the native rung's cycles.
type climbed struct {
	umi, plain   umiOutput
	nativeCycles uint64
}

// climb runs prog up the ladder of nested stacks — the VM alone, plus the
// hierarchy (native), plus rio, plus UMI with the analyzer inline — and
// reruns the UMI stack untraced so the tracing overhead can be read off.
// Each rung's time and counts go into sums. The rungs above the VM run on
// the counting model; the UMI rung also times UMI's rio callbacks.
func climb(tr *tracer, op, parent uint64, prog *program.Program, sums *ladderSums) (climbed, error) {
	var out climbed
	var instrs uint64
	var native, rioModel *countingModel
	var rt *rio.Runtime
	var cb time.Duration
	var gc goSample
	rungs := []struct {
		name string
		run  func() error
		sum  *time.Duration
	}{
		{"rung.vm", func() error {
			m := vm.New(prog, nil)
			err := m.Run(harness.MaxInstrs)
			instrs = m.Instrs
			return err
		}, &sums.vm},
		{"rung.native", func() error {
			native = &countingModel{h: harness.P4.Hierarchy(false)}
			m := vm.New(prog, native)
			err := m.Run(harness.MaxInstrs)
			out.nativeCycles = m.Cycles
			return err
		}, &sums.native},
		{"rung.rio", func() error {
			rioModel = &countingModel{h: harness.P4.Hierarchy(false)}
			rt = rio.NewRuntime(vm.New(prog, rioModel))
			return rt.Run(harness.MaxInstrs)
		}, &sums.rio},
		{"rung.umi", func() error {
			var err error
			cb = 0
			out.umi, err = umiStack(prog, 0, &countingModel{}, &cb)
			return err
		}, &sums.umi},
		{"run.untraced", func() error {
			g0 := readGo()
			var err error
			out.plain, err = umiStack(prog, 0, nil, nil)
			gc = gc.add(readGo().sub(g0))
			return err
		}, &sums.plain},
	}
	best := make([]time.Duration, len(rungs))
	bestCB := time.Duration(-1)
	for round := 0; round < climbRounds; round++ {
		for i, r := range rungs {
			// Each rung starts from a collected heap and pays for its own
			// garbage only, not for the rung before it.
			runtime.GC()
			sp := tr.start(op, parent, r.name)
			err := r.run()
			d := tr.finish(sp).dur()
			if err != nil {
				return out, fmt.Errorf("%s: %w", r.name, err)
			}
			if round == 0 || d < best[i] {
				best[i] = d
			}
		}
		if bestCB < 0 || cb < bestCB {
			bestCB = cb
		}
		if rt.M.Instrs != instrs || out.umi.instrs != instrs {
			return out, fmt.Errorf("rungs retired different instruction counts")
		}
	}
	for i, r := range rungs {
		*r.sum += best[i]
	}
	o := out.umi
	sums.callbacks += bestCB
	sums.accesses += float64(native.accesses)
	sums.l2Accesses += float64(native.h.L2Stats.Accesses)
	sums.l2Misses += float64(native.h.L2Stats.Misses)
	c := rt.Counters()
	sums.dispatches += float64(c.Dispatches)
	sums.fragments += float64(c.BlocksBuilt + c.TracesBuilt)
	sums.samples += float64(o.counters.Samples)
	sums.hits += float64(o.counters.SampleHits)
	sums.refs += float64(o.rep.SimulatedRefs)
	sums.profiled += float64(o.rep.ProfiledOps)
	sums.candidates += float64(o.rep.CandidateOps)
	sums.invocations += float64(o.rep.AnalyzerInvocations)
	sums.instrs += float64(instrs)
	sums.guests++
	sums.gc = sums.gc.add(gc)
	sums.gcInstrs += climbRounds * float64(instrs)
	sums.gcRefs += climbRounds * float64(o.rep.SimulatedRefs)
	return out, nil
}

// ladderMetrics turns traced passes into the vm, cache, rio and UMI layer
// metrics: times as the median over passes, counts from the first pass
// (every pass runs the same deterministic work).
func ladderMetrics(passes []ladderSums, into map[string]float64) {
	per := func(f func(s ladderSums) float64) float64 {
		var xs []float64
		for _, s := range passes {
			xs = append(xs, f(s))
		}
		return quantile(xs, 0.5)
	}
	nsPer := func(d time.Duration, n float64) float64 { return ratio(float64(d.Nanoseconds()), n) }
	into["vm.ns_per_instr"] = per(func(s ladderSums) float64 { return nsPer(s.vm, s.instrs) })
	into["cache.ns_per_access"] = per(func(s ladderSums) float64 { return nsPer(s.native-s.vm, s.accesses) })
	into["rio.ns_per_instr"] = per(func(s ladderSums) float64 { return nsPer(s.rio-s.native, s.instrs) })
	into["umi.ns_per_instr"] = per(func(s ladderSums) float64 { return nsPer(s.umi-s.rio, s.instrs) })
	into["umi.callback_ms"] = per(func(s ladderSums) float64 { return ms(s.callbacks) / float64(s.guests) })
	s := passes[0]
	into["cache.accesses_per_instr"] = ratio(s.accesses, s.instrs)
	into["cache.l2_miss_ratio"] = ratio(s.l2Misses, s.l2Accesses)
	into["rio.dispatches_per_kinstr"] = 1000 * ratio(s.dispatches, s.instrs)
	into["rio.fragments_built"] = s.fragments
	into["rio.sample_hit_frac"] = ratio(s.hits, s.samples)
	into["umi.refs_per_kinstr"] = 1000 * ratio(s.refs, s.instrs)
	into["umi.profiled_frac"] = ratio(s.profiled, s.candidates)
	into["umi.invocations"] = s.invocations
}

// goMetrics records allocation and GC CPU over a measured phase.
func goMetrics(g goSample, instrs, refs float64, into map[string]float64) {
	into["go.alloc_bytes_per_instr"] = ratio(g.allocBytes, instrs)
	into["go.alloc_bytes_per_ref"] = ratio(g.allocBytes, refs)
	into["go.gc_cpu_frac"] = ratio(g.gcCPU, g.totalCPU)
}

// traceProfile is the traced run: passes up the ladder for every guest,
// with the untraced rerun in each round, until the time is up (at least
// one whole pass).
func traceProfile(cfg config, st *profileState, res *result, out io.Writer) error {
	tr := newTracer()
	deadline := time.Now().Add(seconds(cfg.seconds))
	var passes []ladderSums
	for len(passes) == 0 || time.Now().Before(deadline) {
		var s ladderSums
		for _, gi := range st.order {
			g := st.guests[gi]
			op := tr.newOp()
			root := tr.start(op, 0, "op.ladder")
			c, err := climb(tr, op, root.ID, g.prog, &s)
			tr.finish(root)
			switch {
			case err != nil:
			case c.nativeCycles != g.nativeCycles:
				err = errors.New("native rung cycles differ from setup's native run")
			case !c.umi.equal(g.ref) || !c.plain.equal(g.ref):
				err = errors.New("UMI outputs differ from the reference")
			}
			res.attempted++
			if err != nil {
				res.failed++
				reportFailure(out, res.failed, g.w.Name, err)
			}
		}
		passes = append(passes, s)
	}
	ladderMetrics(passes, res.metrics)
	s := passes[len(passes)-1]
	goMetrics(s.gc, s.gcInstrs, s.gcRefs, res.metrics)
	var over, traced []float64
	for _, p := range passes {
		over = append(over, 100*(ratio(p.umi.Seconds(), p.plain.Seconds())-1))
		traced = append(traced, p.instrs/p.umi.Seconds()/1e6)
	}
	res.metrics["trace.overhead_pct"] = quantile(over, 0.5)
	fmt.Fprintf(out, "traced passes=%d headline guest_mips=%.4g MIPS (untraced reruns in the same passes: %.4g MIPS)\n",
		len(passes), quantile(traced, 0.5), s.instrs/s.plain.Seconds()/1e6)
	return writeSpans(cfg, tr, out)
}
