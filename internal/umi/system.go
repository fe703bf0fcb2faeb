package umi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/wire"
)

// traceState tracks one code trace through the UMI lifecycle.
type traceState struct {
	clean *rio.Fragment // uninstrumented code (the clone T_c)
	// instr is the currently installed instrumented fragment, nil when
	// the trace runs clean.
	instr   *rio.Fragment
	profile *AddressProfile
	curRow  int
	rowOpen bool

	samples      int
	freqThresh   int // per-trace frequency threshold (AdaptiveFrequency)
	alpha        float64
	lastAnalyzed uint64 // guest instrs at last analysis (cooldown base)
	everAnalyzed bool
	analyses     int
	// barren marks traces with no profilable operations after filtering.
	barren bool

	// Sampler state (sampler.go). entrySeen counts instrumented entries
	// since the trace was last (re)instrumented — the burst position and
	// the fill trigger; rowTarget is the entry budget captured at
	// instrument time (adaptation can change it between bursts, never
	// mid-burst); rowsSeen counts recorded executions offered to the
	// reservoir; burstOffset and rngState are the per-trace deterministic
	// schedule seeds.
	entrySeen   int
	rowTarget   int
	rowsSeen    int
	burstOffset uint64
	rngState    uint64
}

// System wires the three UMI components (region selector, instrumentor,
// profile analyzer) into a rio runtime.
type System struct {
	cfg Config
	rt  *rio.Runtime
	an  *Analyzer

	// OnAnalyzed, when set, runs after each trace's profile is analyzed,
	// at the natural optimization boundary the paper describes ("before
	// replacing T with T_c, one can perform optimizations on T_c based
	// on the mini-simulation results"). It receives the trace's clean
	// code and the analyzer; returning a non-nil fragment installs it as
	// the trace's code from then on. The software prefetcher hangs here.
	OnAnalyzed func(clean *rio.Fragment, an *Analyzer) *rio.Fragment

	traces     map[uint64]*traceState
	globalRows int
	consumers  []ProfileConsumer

	// statistics
	profiledPCs      map[uint64]bool
	candidatePCs     map[uint64]bool
	instrumentEvents int

	// Sampler adaptation state (sampler.go): the current shrink level and
	// the consecutive phase-stable window count feeding it. Guest thread
	// only.
	adaptLevel  int
	adaptStable int

	// Wall-clock attribution anchors (overhead.go). wallStart is set once
	// at Attach; prologTick drives the 1-in-N sampled prolog wall
	// estimator.
	wallStart  time.Time
	prologTick uint64

	// met is the self-observability registry (metrics.go); always present,
	// always collecting — the snapshot surfaces decide whether anyone
	// looks. Collection never feeds back into modelled overhead or
	// reported results, so metrics-on and metrics-off reports are
	// byte-identical by construction.
	met *Metrics

	// tlog is the structured event timeline (internal/tracelog), nil until
	// EnableEventTrace. Like met it is purely observational: every emit is
	// keyed to the modelled cycle clock and never feeds back into modelled
	// state, so trace-on and trace-off reports are byte-identical.
	tlog *tracelog.Log

	// wenc, when non-nil, records every analyzer invocation's inputs as a
	// umi-profile stream (EnableWireEmit / wire.go). Emission happens on
	// the guest thread before the analyzer consumes the profiles, with the
	// invocation's cycle stamp, and, like met/tlog, it never feeds back
	// into modelled state.
	wenc *wire.Encoder
}

// Attach installs UMI onto the runtime. It must be called before the
// runtime starts executing. The runtime's sampler is always enabled (it is
// UMI's clock); cfg.UseSampling chooses whether it also gates region
// selection.
func Attach(rt *rio.Runtime, cfg Config) *System {
	s := &System{
		cfg:          cfg,
		rt:           rt,
		traces:       make(map[uint64]*traceState),
		profiledPCs:  make(map[uint64]bool),
		candidatePCs: make(map[uint64]bool),
	}
	s.met = newMetrics()
	s.wallStart = time.Now()
	s.an = NewAnalyzer(&s.cfg)
	s.an.met = s.met
	if cfg.HistoryWindows >= 0 {
		s.an.hist = newHistory(cfg.HistoryWindows, cfg.PhaseMissDelta, cfg.PhaseChurnDelta)
	}
	rt.SamplePeriod = cfg.SamplePeriod
	rt.OnTrace = s.onTrace
	rt.OnSample = s.onSample
	return s
}

// EnableEventTrace attaches a structured event log of the given ring
// capacity (0 selects tracelog.DefaultCapacity) and wires it through the
// region selector, instrumentor, analyzer and the underlying rio
// runtime. Must be called before the runtime starts executing; the
// returned log may be snapshotted from any goroutine at any time.
func (s *System) EnableEventTrace(capacity int) *tracelog.Log {
	l := tracelog.NewLog(capacity)
	s.tlog = l
	s.an.tlog = l
	s.rt.EventLog = l
	return l
}

// EventLog returns the attached event log (nil unless EnableEventTrace
// was called).
func (s *System) EventLog() *tracelog.Log { return s.tlog }

// History snapshots the profile-history ring. The ring has its own
// snapshot lock, so the introspection server may call it from any
// goroutine mid-run; every invocation finished so far is reflected.
func (s *System) History() HistoryView { return s.an.hist.View() }

// Analyzer exposes the profile analyzer and its cumulative results. Guest
// thread only while the guest runs.
func (s *System) Analyzer() *Analyzer { return s.an }

// onTrace is the region selector's trace-creation hook.
func (s *System) onTrace(f *rio.Fragment) {
	ts := &traceState{clean: f, alpha: s.cfg.clampAlpha(s.cfg.DelinquencyInit),
		freqThresh: s.cfg.FrequencyThreshold}
	s.samplerInit(ts)
	s.traces[f.Start] = ts
	s.met.TracesSeen.Inc()
	// Record candidate operations for Table 3 accounting even if the
	// trace is never instrumented.
	s.noteCandidates(f)
	// Filter accounting (§4.1): what the instrumentor would keep vs. drop
	// for this trace, counted once at trace creation so the rate is
	// per-operation, not weighted by reinstrumentation count.
	kept, _, _, cand := selectOps(f, s.cfg.FilterOps, s.cfg.AddressProfileOps)
	s.met.CandidatesKept.Add(uint64(len(kept)))
	s.met.CandidatesFiltered.Add(uint64(cand - len(kept)))
	if !s.cfg.UseSampling {
		s.instrument(ts)
	}
}

func (s *System) noteCandidates(f *rio.Fragment) {
	for i := range f.Instrs {
		if op := f.Instrs[i].Op; op.IsLoad() || op.IsStore() {
			s.candidatePCs[f.PCs[i]] = true
		}
	}
}

// onSample is the region selector's sampling hook: it reinforces hot
// traces (UseSampling) and re-arms traces whose cooldown has passed.
func (s *System) onSample(f *rio.Fragment) {
	if f == nil {
		return
	}
	ts, ok := s.traces[f.Start]
	if !ok || ts.barren || ts.instr != nil {
		return
	}
	if ts.everAnalyzed && s.rt.M.Instrs-ts.lastAnalyzed < s.effGap() {
		return
	}
	if s.cfg.UseSampling {
		threshold := s.cfg.FrequencyThreshold
		if s.cfg.AdaptiveFrequency {
			threshold = ts.freqThresh
		}
		ts.samples++
		if ts.samples < threshold {
			return
		}
		ts.samples = 0
	}
	s.instrument(ts)
}

// instrument builds and installs the instrumented version of a trace: the
// paper's clone-and-patch step.
func (s *System) instrument(ts *traceState) {
	wallStart := time.Now()
	ops, isLoad, cols, _ := selectOps(ts.clean, s.cfg.FilterOps, s.cfg.AddressProfileOps)
	if len(ops) == 0 {
		ts.barren = true
		s.met.TracesBarren.Inc()
		return
	}
	// The burst's entry budget is the (possibly adaptation-shrunk) row
	// target; the profile's physical capacity is that, further capped by
	// the reservoir. Both are latched here so mid-burst adaptation never
	// changes a running trace's geometry.
	ts.rowTarget = s.effRows()
	capRows := ts.rowTarget
	if r := s.cfg.ReservoirRows; r > 0 && r < capRows {
		capRows = r
	}
	ts.entrySeen = 0
	ts.rowsSeen = 0
	switch {
	case ts.profile == nil:
		ts.profile = NewAddressProfile(ops, isLoad, capRows)
	case len(ts.profile.Ops) != len(ops) || ts.profile.rowCap != capRows:
		ts.profile.Reinit(ops, isLoad, capRows)
	default:
		ts.profile.Reset()
	}
	for _, pc := range ops {
		s.profiledPCs[pc] = true
	}

	// One hook per profiled instruction, aligned with the clone's code,
	// recording into the instruction's profile column.
	hooks := make([]rio.MemHook, len(cols))
	for i, col := range cols {
		if col < 0 {
			continue
		}
		hooks[i] = func(_, addr uint64, _ uint8, _ bool) {
			if ts.rowOpen {
				ts.profile.Record(ts.curRow, col, addr)
				s.met.FillRefs.Inc()
			}
		}
	}

	inst := ts.clean.Clone()
	inst.Instr = &rio.Instrumentation{
		Prolog: func() bool {
			s.met.FillPrologs.Inc()
			if ts.entrySeen >= ts.rowTarget || s.globalRows >= s.cfg.TraceProfileLen {
				global := uint64(0)
				if ts.entrySeen >= ts.rowTarget {
					s.met.ProfileFills.Inc()
				} else {
					s.met.GlobalFills.Inc()
					global = 1
				}
				s.emit(tracelog.Event{Type: tracelog.EvProfileFill,
					TracePC: ts.clean.Start, Arg1: uint64(ts.profile.Rows()), Arg2: global})
				s.runAnalyzer(ts)
				return false
			}
			// Fill-stage wall attribution: timing every prolog would put
			// two clock reads on the hottest guest path, so 1-in-N entries
			// are timed and scaled — a sampled estimator, flagged as such
			// in the live render.
			s.prologTick++
			if s.prologTick%prologWallSample == 0 {
				t0 := time.Now()
				defer func() {
					s.met.FillWallNs.Add(uint64(time.Since(t0)) * prologWallSample)
				}()
			}
			ts.entrySeen++
			if !s.burstRecord(ts) {
				// Off-schedule entry: run unprofiled (rio skips the hooks),
				// paying only the prolog conditional.
				s.met.BurstSkips.Inc()
				ts.rowOpen = false
				return false
			}
			ts.rowsSeen++
			if row, ok := ts.profile.OpenRow(); ok {
				ts.curRow = row
			} else {
				// Reservoir: replace a pseudo-random resident with
				// probability cap/seen, else drop this execution.
				j := ts.nextRand() % uint64(ts.rowsSeen)
				if j >= uint64(ts.profile.rowCap) {
					s.met.ReservoirDrops.Inc()
					ts.rowOpen = false
					return false
				}
				ts.profile.ReuseRow(int(j))
				ts.curRow = int(j)
				s.met.ReservoirReplaced.Inc()
			}
			ts.rowOpen = true
			s.globalRows++
			return true
		},
		Hooks:      hooks,
		PerRefCost: s.cfg.PerRefCost,
		PrologCost: s.cfg.PrologCost,
	}
	ts.instr = inst
	s.instrumentEvents++
	s.met.TracesInstrumented.Inc()
	s.emit(tracelog.Event{Type: tracelog.EvTraceInstrumented,
		TracePC: ts.clean.Start, Arg1: uint64(len(ops))})
	s.rt.AddOverhead(s.cfg.InstrumentCost)
	s.rt.ReplaceTrace(inst)
	ns := uint64(time.Since(wallStart))
	s.met.InstrumentWallNs.Add(ns)
	s.met.InstrumentLatency.Observe(ns)
}

// liveTraces returns the traces with a non-empty profile, sorted by trace
// start PC — the fixed merge order the recorded stream also keeps. The previous
// map-order walk made reports depend on Go's randomized map iteration
// whenever an invocation covered more than one live profile (the shared
// logical cache makes the mini-simulation order-sensitive).
func (s *System) liveTraces() []*traceState {
	var live []*traceState
	for _, ts := range s.traces {
		if ts.instr == nil || ts.profile == nil || ts.profile.Rows() == 0 {
			continue
		}
		live = append(live, ts)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].clean.Start < live[j].clean.Start })
	return live
}

// runAnalyzer performs one profile-analyzer invocation on the guest
// goroutine: the guest stalls for the analysis, as in the paper. It runs
// every live profile through the invocation body, swaps every analyzed
// trace back to its clean clone, and charges the modelled analysis cost.
// The invocation is stamped with the synced guest clock, which no guest
// instruction moves until it returns.
func (s *System) runAnalyzer(trigger *traceState) {
	now := s.now()
	live := s.liveTraces()
	s.emitInvocation(now, live)
	s.tlog.Emit(tracelog.Event{Type: tracelog.EvAnalyzerBegin,
		Cycles: now, Arg1: uint64(len(live))})
	profs := make([]*AddressProfile, len(live))
	alphas := make([]float64, len(live))
	for i, ts := range live {
		profs[i], alphas[i] = ts.profile, ts.alpha
	}
	inv := newInvocation(&s.cfg, now, profs, alphas)
	s.met.AnalyzeCycles.Add(inv.cost)
	// Each trace settles right after its profile's analysis, because
	// OnAnalyzed and AdaptiveFrequency read the analyzer then.
	inv.settle = func(i int) {
		ts := live[i]
		if s.cfg.AdaptiveFrequency {
			s.tuneFrequency(ts)
		}
		ts.profile.Reset()
		s.deinstrument(ts)
	}
	s.an.invoke(inv, s.consumers)
	if s.cfg.AdaptSampling {
		// The window just captured is settled, and adaptation steps from
		// it.
		s.adaptFromWindow()
	}
	s.rt.AddOverhead(inv.cost)
	if s.cfg.Adaptive {
		trigger.alpha = s.cfg.clampAlpha(trigger.alpha - s.cfg.DelinquencyStep)
		s.met.AdaptiveAlphaSteps.Inc()
		s.tlog.Emit(tracelog.Event{Type: tracelog.EvAdaptiveStep,
			Cycles: now, TracePC: trigger.clean.Start,
			Arg1: math.Float64bits(trigger.alpha)})
	}
	s.globalRows = 0
	s.syncMirrors()
}

// tuneFrequency adapts a trace's sampling threshold to what its analysis
// just found (Config.AdaptiveFrequency).
func (s *System) tuneFrequency(ts *traceState) {
	interesting := false
	for _, pc := range ts.profile.Ops {
		if s.an.delinquent[pc] {
			interesting = true
			break
		}
	}
	s.met.AdaptiveFreqSteps.Inc()
	if interesting {
		ts.freqThresh /= 2
		if ts.freqThresh < 1 {
			ts.freqThresh = 1
		}
	} else {
		ts.freqThresh *= 2
		if max := s.cfg.MaxFrequencyThreshold; max > 0 && ts.freqThresh > max {
			ts.freqThresh = max
		}
	}
}

// deinstrument swaps a trace back to its clean clone and runs the
// optimization hook. The caller has already reset the profile in place.
func (s *System) deinstrument(ts *traceState) {
	ts.instr = nil
	ts.rowOpen = false
	s.met.TracesDeinstrumented.Inc()
	s.emit(tracelog.Event{Type: tracelog.EvTraceDeinstrumented,
		TracePC: ts.clean.Start, Arg1: uint64(ts.analyses + 1)})
	ts.everAnalyzed = true
	ts.analyses++
	ts.lastAnalyzed = s.rt.M.Instrs
	if s.OnAnalyzed != nil {
		if nf := s.OnAnalyzed(ts.clean, s.an); nf != nil {
			ts.clean = nf
		}
	}
	s.rt.AddOverhead(s.cfg.InstrumentCost) // swap back
	s.rt.ReplaceTrace(ts.clean)
}

// Finish analyzes any profiles still live when execution ends, so short
// runs report complete results, and syncs every registry mirror (the rio
// counters and the guest clocks), so every snapshot taken after it is
// final.
func (s *System) Finish() {
	if live := s.liveTraces(); len(live) > 0 {
		// The first live trace (fixed order) is the nominal trigger.
		s.runAnalyzer(live[0])
	}
	s.syncMirrors()
}

// now syncs the machine and reads the guest clock. Every read of the
// clock goes through it: during a run the machine's hierarchy works
// beside the interpreter, and Cycles lags until a sync.
func (s *System) now() uint64 {
	s.rt.M.Sync()
	return s.rt.M.Cycles
}

// emit records a guest-thread event stamped with the guest clock. Without
// a log it neither syncs the machine nor reads the clock.
func (s *System) emit(ev tracelog.Event) {
	if s.tlog == nil {
		return
	}
	ev.Cycles = s.now()
	s.tlog.Emit(ev)
}

// Report summarizes a UMI run.
type Report struct {
	// Delinquent is the predicted delinquent load set P (application PCs).
	Delinquent map[uint64]bool
	// Strides holds dominant strides for profiled loads.
	Strides map[uint64]StrideInfo
	// OpStats holds cumulative per-operation mini-simulation statistics.
	OpStats map[uint64]*OpStat
	// SimMissRatio is the overall mini-simulated L2 miss ratio.
	SimMissRatio float64

	ProfiledOps         int // unique instrumented operations
	CandidateOps        int // unique load/store operations seen in traces
	ProfilesCollected   int
	AnalyzerInvocations int
	InstrumentEvents    int
	TracesSeen          int
	SimulatedRefs       uint64
	Flushes             int
}

// Report returns the run summary. Call Finish first for complete
// results.
func (s *System) Report() *Report {
	return &Report{
		Delinquent:          s.an.Delinquent(),
		Strides:             s.an.Strides(),
		OpStats:             s.an.OpStats(),
		SimMissRatio:        s.an.MissRatio(),
		ProfiledOps:         len(s.profiledPCs),
		CandidateOps:        len(s.candidatePCs),
		ProfilesCollected:   s.an.profiles,
		AnalyzerInvocations: s.an.Invocations,
		InstrumentEvents:    s.instrumentEvents,
		TracesSeen:          len(s.traces),
		SimulatedRefs:       s.an.SimulatedRefs,
		Flushes:             s.an.Flushes,
	}
}

func (r *Report) String() string {
	if r.TracesSeen == 0 {
		// An empty session (the program halted before any region got hot)
		// is a legitimate outcome, not a formatting edge case: say so
		// explicitly instead of rendering a row of ambiguous zeros.
		return "umi.Report{no traces instrumented}"
	}
	return fmt.Sprintf("umi.Report{traces %d, profiled %d/%d ops, %d profiles, %d invocations, sim miss %.4f, |P|=%d}",
		r.TracesSeen, r.ProfiledOps, r.CandidateOps, r.ProfilesCollected,
		r.AnalyzerInvocations, r.SimMissRatio, len(r.Delinquent))
}
