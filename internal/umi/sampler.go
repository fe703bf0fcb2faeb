package umi

// Sampled and adaptive instrumentation (Examem-style, ROADMAP item): the
// machinery that makes "always on" cheap. Three independent mechanisms,
// each provably inert when disabled:
//
//   - Burst sampling (Config.BurstPeriod): an instrumented trace records
//     only 1-in-N of its executions. The prolog consults a deterministic
//     schedule — seeded from SamplerSeed and the trace's start PC,
//     advanced by the trace's own entry counter — and skipped entries run
//     without reference hooks, paying PrologCost but no per-ref cost.
//   - Reservoir sampling (Config.ReservoirRows): caps a profile's
//     physical rows; once full, each further recorded execution replaces
//     a pseudo-random resident with probability cap/seen (or is
//     dropped), yielding a uniform row sample of the whole burst.
//   - History-driven adaptation (Config.AdaptSampling): consecutive
//     phase-stable analyzer windows shrink the per-trace row target and
//     stretch the reinstrumentation cooldown; a PhaseChange flag re-arms
//     full profiling at once.
//
// Everything here is guest-thread modelled state: the schedules derive
// only from the seed, the trace PC, and deterministic counters, never
// from wall time — so sampled reports, like unsampled ones, are
// byte-identical for a fixed seed.

// splitmix64 is the SplitMix64 output function: a fast, well-mixed
// 64-bit permutation used both to derive per-trace schedule offsets from
// (seed, PC) and as the reservoir's PRNG step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// samplerInit seeds a trace's deterministic sampling state from the
// configured seed and the trace's start PC: the burst phase offset
// (decorrelating traces so they don't all record the same entries) and
// the reservoir PRNG stream.
func (s *System) samplerInit(ts *traceState) {
	h := splitmix64(s.cfg.SamplerSeed ^ ts.clean.Start)
	ts.burstOffset = h
	ts.rngState = splitmix64(h)
}

// nextRand advances the trace's reservoir PRNG stream.
func (ts *traceState) nextRand() uint64 {
	ts.rngState = splitmix64(ts.rngState)
	return ts.rngState
}

// burstRecord reports whether the trace's next entry is scheduled to
// record a profile row. With BurstPeriod ≤ 1 every entry records. The
// period is clamped to the burst's entry budget so every burst records at
// least one row — the fill trigger's invariant is that the triggering
// trace is always live, so an analyzer invocation never runs empty.
func (s *System) burstRecord(ts *traceState) bool {
	period := s.cfg.burstPeriod()
	if period > ts.rowTarget {
		period = ts.rowTarget
	}
	if period <= 1 {
		return true
	}
	return (uint64(ts.entrySeen)+ts.burstOffset)%uint64(period) == 0
}

// effRows is the adapted per-trace row target: the configured
// AddressProfileRows halved once per adaptation level, floored at
// adaptMinRows (but never raised above the configured target).
func (s *System) effRows() int {
	rows := s.cfg.AddressProfileRows
	if !s.cfg.AdaptSampling || s.adaptLevel == 0 {
		return rows
	}
	adapted := rows >> uint(s.adaptLevel)
	if adapted < adaptMinRows {
		adapted = adaptMinRows
	}
	if adapted > rows {
		adapted = rows
	}
	return adapted
}

// effGap is the adapted reinstrumentation cooldown: the configured gap
// doubled once per adaptation level.
func (s *System) effGap() uint64 {
	gap := s.cfg.ReinstrumentGap
	if !s.cfg.AdaptSampling || s.adaptLevel == 0 {
		return gap
	}
	return gap << uint(s.adaptLevel)
}

// adaptFromWindow runs the adaptation state machine after an analyzer
// invocation (the System analyzes on the guest thread, so the
// just-captured window is visible here). A
// PhaseChange re-arms full profiling; K consecutive stable windows step
// the level down one notch.
func (s *System) adaptFromWindow() {
	w, ok := s.an.hist.lastWindow()
	if !ok {
		return
	}
	if w.PhaseChange {
		if s.adaptLevel != 0 || s.adaptStable != 0 {
			s.met.AdaptRearms.Inc()
		}
		s.adaptLevel = 0
		s.adaptStable = 0
		s.met.AdaptLevel.Set(0)
		return
	}
	s.adaptStable++
	if s.adaptStable >= s.cfg.adaptStableWindows() && s.adaptLevel < adaptMaxLevel {
		s.adaptLevel++
		s.adaptStable = 0
		s.met.AdaptShrinks.Inc()
		s.met.AdaptLevel.Set(int64(s.adaptLevel))
	}
}
