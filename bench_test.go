// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks, plus ablation benchmarks for the design
// choices DESIGN.md calls out. Each benchmark runs the corresponding
// harness experiment and reports the headline quantities as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints the numbers EXPERIMENTS.md
// records. Individual artifacts: -bench=BenchmarkTable4, etc.
package bench

import (
	"bytes"
	"io"
	"testing"

	"umi/internal/cache"
	"umi/internal/harness"
	"umi/internal/introspect"
	"umi/internal/isa"
	"umi/internal/prefetch"
	programpkg "umi/internal/program"
	"umi/internal/rio"
	"umi/internal/stats"
	iumi "umi/internal/umi"
	"umi/internal/vm"
	"umi/internal/wire"
	"umi/internal/workloads"
)

// ---------------------------------------------------------------------
// One benchmark per table.
// ---------------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].SlowdownPct, "slowdown@10_%")
		b.ReportMetric(res.Rows[len(res.Rows)-1].SlowdownPct, "slowdown@1M_%")
		b.ReportMetric(res.UMISlowPct, "umi_slowdown_%")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table3(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPct, "avg_profiled_%")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table4(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UMINoPF[len(res.UMINoPF)-1].R, "umi_corr_noPF")
		b.ReportMetric(res.UMIPF[len(res.UMIPF)-1].R, "umi_corr_PF")
		b.ReportMetric(res.UMIK7[len(res.UMIK7)-1].R, "umi_corr_K7")
		b.ReportMetric(res.CachegrindNoPF[len(res.CachegrindNoPF)-1].R, "cachegrind_corr")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cells[len(res.Cells)-1].R, "spec2006_corr")
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table6(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.AvgHigh.Recall, "recall_high_%")
		b.ReportMetric(100*res.AvgAll.Recall, "recall_all_%")
		b.ReportMetric(100*res.AvgAll.FalsePositives, "false_pos_%")
		b.ReportMetric(100*res.AvgHigh.PMissCoverage, "coverage_high_%")
	}
}

// ---------------------------------------------------------------------
// One benchmark per figure.
// ---------------------------------------------------------------------

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig2(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoRIO, "rio_geomean")
		b.ReportMetric(res.GeoNoS, "umi_nosamp_geomean")
		b.ReportMetric(res.GeoSamp, "umi_samp_geomean")
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig3(nil)
		if err != nil {
			b.Fatal(err)
		}
		best := 1.0
		for _, r := range res.Rows {
			if r.UMISW < best {
				best = r.UMISW
			}
		}
		b.ReportMetric(res.GeoSW, "sw_prefetch_geomean")
		b.ReportMetric(best, "best_case")
		b.ReportMetric(float64(len(res.Rows)), "benchmarks")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig4(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoSW, "sw_prefetch_geomean_k7")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig5(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoSW, "sw_geomean")
		b.ReportMetric(res.GeoHW, "hw_geomean")
		b.ReportMetric(res.GeoBoth, "both_geomean")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Fig6(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoSW, "sw_miss_geomean")
		b.ReportMetric(res.GeoHW, "hw_miss_geomean")
		b.ReportMetric(res.GeoBoth, "both_miss_geomean")
	}
}

func BenchmarkSensThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.SensitivityThreshold(nil)
		if err != nil {
			b.Fatal(err)
		}
		mcf := res[0].Points
		b.ReportMetric(100*mcf[0].Recall, "mcf_recall_th1_%")
		b.ReportMetric(100*mcf[len(mcf)-1].Recall, "mcf_recall_th1024_%")
	}
}

func BenchmarkSensProfileLen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.SensitivityProfileLen(nil)
		if err != nil {
			b.Fatal(err)
		}
		mcf := res[0].Points
		b.ReportMetric(100*mcf[0].Recall, "mcf_recall_64_%")
		b.ReportMetric(100*mcf[len(mcf)-1].Recall, "mcf_recall_32K_%")
	}
}

// ---------------------------------------------------------------------
// Ablations for the design decisions in DESIGN.md §5.
// ---------------------------------------------------------------------

// ablationRun executes mcf under UMI with an edited config and returns
// the run.
func ablationRun(b *testing.B, name string, edit func(*iumi.Config)) *harness.UMIRun {
	b.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	cfg := harness.UMIParams(harness.P4)
	if edit != nil {
		edit(&cfg)
	}
	run, err := harness.RunUMI(w, harness.P4, cfg, false, false)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkAblationFiltering compares instrumentation overhead with and
// without the stack/static operation filter (§4.1).
func BenchmarkAblationFiltering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		filtered := ablationRun(b, "181.mcf", nil)
		unfiltered := ablationRun(b, "181.mcf", func(c *iumi.Config) { c.FilterOps = false })
		b.ReportMetric(float64(filtered.Report.ProfiledOps), "ops_filtered")
		b.ReportMetric(float64(unfiltered.Report.ProfiledOps), "ops_unfiltered")
		b.ReportMetric(float64(filtered.RT.Overhead), "overhead_filtered_cy")
		b.ReportMetric(float64(unfiltered.RT.Overhead), "overhead_unfiltered_cy")
	}
}

// BenchmarkAblationWarmup compares the mini-simulated miss ratio with and
// without warm-up skipping (§5): without it, compulsory misses inflate
// the ratio.
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		warm := ablationRun(b, "177.mesa", nil)
		cold := ablationRun(b, "177.mesa", func(c *iumi.Config) { c.WarmupRows = 0 })
		b.ReportMetric(warm.Report.SimMissRatio, "ratio_warmup")
		b.ReportMetric(cold.Report.SimMissRatio, "ratio_no_warmup")
	}
}

// BenchmarkAblationFlush compares the shared logical cache with periodic
// flushing against flushing before every invocation (no state carry-over).
func BenchmarkAblationFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		carry := ablationRun(b, "177.mesa", nil)
		fresh := ablationRun(b, "177.mesa", func(c *iumi.Config) { c.FlushCycleGap = 0 })
		b.ReportMetric(carry.Report.SimMissRatio, "ratio_carryover")
		b.ReportMetric(fresh.Report.SimMissRatio, "ratio_always_flush")
	}
}

// BenchmarkAblationAdaptiveThreshold reproduces §7.1's claim: the
// adaptive per-trace delinquency threshold cuts false positives versus a
// single global threshold at the floor value.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	w, _ := workloads.ByName("197.parser")
	for i := 0; i < b.N; i++ {
		cg, err := harness.RunCachegrind(w, harness.P4)
		if err != nil {
			b.Fatal(err)
		}
		truth := cg.DelinquentSet(0.90)
		adaptive := ablationRun(b, "197.parser", nil)
		global := ablationRun(b, "197.parser", func(c *iumi.Config) {
			c.Adaptive = false
			c.DelinquencyInit = 0.10 // the floor, applied globally
		})
		b.ReportMetric(stats.FalsePositiveRatio(adaptive.Report.Delinquent, truth), "fp_adaptive")
		b.ReportMetric(stats.FalsePositiveRatio(global.Report.Delinquent, truth), "fp_global_low")
	}
}

// BenchmarkAblationSampling compares sample-based region selection with
// instrument-everything on the many-trace gcc stand-in (§6.1's gcc story).
func BenchmarkAblationSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sampled := ablationRun(b, "176.gcc", nil)
		eager := ablationRun(b, "176.gcc", func(c *iumi.Config) { c.UseSampling = false })
		b.ReportMetric(float64(sampled.RT.Overhead), "overhead_sampled_cy")
		b.ReportMetric(float64(eager.RT.Overhead), "overhead_eager_cy")
		b.ReportMetric(float64(sampled.Report.InstrumentEvents), "events_sampled")
		b.ReportMetric(float64(eager.Report.InstrumentEvents), "events_eager")
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the core engines (allocation behaviour matters for
// an online system).
// ---------------------------------------------------------------------

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.P4L2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := cache.NewP4(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i)*64, 8, false)
	}
}

func BenchmarkVMExecution(b *testing.B) {
	w, _ := workloads.ByName("252.eon")
	p := w.Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(p, nil)
		if err := m.Run(harness.MaxInstrs); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Instrs))
	}
}

func BenchmarkRIOExecution(b *testing.B) {
	w, _ := workloads.ByName("252.eon")
	p := w.Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(p, nil)
		rt := rio.NewRuntime(m)
		if err := rt.Run(harness.MaxInstrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeProfile measures the analyzer's inner loop — the
// mini-simulation every recorded reference funnels through — on a profile
// shaped like the paper's defaults (§4.2 geometry, mixed hit/miss columns).
// ns/ref is the perf-trajectory headline (BENCH_umi.json); allocs/op must
// stay 0 in steady state (TestAnalyzeProfileZeroAllocs is the CI gate).
func BenchmarkAnalyzeProfile(b *testing.B) {
	cfg := iumi.DefaultConfig(cache.P4L2)
	an := iumi.NewAnalyzer(&cfg)
	const nOps, rows = 16, 256
	ops := make([]uint64, nOps)
	isLoad := make([]bool, nOps)
	for i := range ops {
		ops[i] = uint64(0x1000 + i*16)
		isLoad[i] = i%4 != 3
	}
	prof := iumi.NewAddressProfile(ops, isLoad, rows)
	for r := 0; r < rows; r++ {
		row, _ := prof.OpenRow()
		for c := 0; c < nOps; c++ {
			// Half the columns stream (miss-heavy), half cycle a small
			// resident set (hit-heavy), so both Access outcomes are hot.
			if c%2 == 0 {
				prof.Record(row, c, uint64(r)*4096+uint64(c)*64)
			} else {
				prof.Record(row, c, uint64(r%8)*64+uint64(c)*8192)
			}
		}
	}
	refsPerOp := uint64(prof.Recorded())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.BeginInvocation(uint64(i))
		an.AnalyzeProfile(prof, 0.9)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refsPerOp), "ns/ref")
}

// BenchmarkPipelineEndToEnd times one inline UMI run of 181.mcf — guest
// execution, instrumentation, profile recording and mini-simulation on
// the guest goroutine — and reports wall time per guest instruction: the
// whole run's cost, which the substrate dominates, not just the
// analyzer's share.
func BenchmarkPipelineEndToEnd(b *testing.B) { benchUMIRun(b, "181.mcf") }

// BenchmarkRIODispatch is BenchmarkPipelineEndToEnd on 197.parser, a guest
// that builds some 200 traces and leaves them tens of thousands of times,
// so rio's per-entry path (dispatch, links, exit bookkeeping) is a large
// share of its run; 181.mcf, a one-trace loop, barely enters that path.
func BenchmarkRIODispatch(b *testing.B) { benchUMIRun(b, "197.parser") }

// benchUMIRun times whole inline UMI runs of one workload on the P4
// hierarchy and reports wall time per guest instruction.
func benchUMIRun(b *testing.B, name string) {
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	cfg := harness.UMIParams(harness.P4)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := harness.RunUMI(w, harness.P4, cfg, false, false)
		if err != nil {
			b.Fatal(err)
		}
		instrs += run.RT.M.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkSampledAccess runs the full pipeline under burst sampling with
// adaptation (1-in-8 trace executions profiled, stable phases shrinking
// further) — the configuration the overhead-frontier harness recommends —
// and reports wall time per simulated reference next to the modelled
// self-overhead it leaves behind. Belongs in BENCH_umi.json beside
// BenchmarkPipelineEndToEnd, its instrument-everything counterpart.
func BenchmarkSampledAccess(b *testing.B) {
	w, ok := workloads.ByName("181.mcf")
	if !ok {
		b.Fatal("workload 181.mcf missing")
	}
	cfg := harness.UMIParams(harness.P4)
	cfg.BurstPeriod = 8
	cfg.SamplerSeed = 1
	cfg.AdaptSampling = true
	var refs uint64
	var overheadPct float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := harness.RunUMI(w, harness.P4, cfg, false, false)
		if err != nil {
			b.Fatal(err)
		}
		refs += run.Report.SimulatedRefs
		overheadPct = 100 * run.Sys.Overhead().OverheadRatio
	}
	if refs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	}
	b.ReportMetric(overheadPct, "overhead_%")
}

// BenchmarkOverheadAttribution measures assembling the per-stage
// attribution report from the registry — the cost the introspection
// endpoint pays per /overhead scrape while the guest runs.
func BenchmarkOverheadAttribution(b *testing.B) {
	w, _ := workloads.ByName("181.mcf")
	run, err := harness.RunProgram(w.Program(), harness.P4, false, harness.UMIParams(harness.P4), harness.MaxInstrs, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := run.Sys
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.Overhead()
		if r.GuestCycles == 0 {
			b.Fatal("live report empty")
		}
	}
}

// wireBenchEmit writes a umi-profile/v1 stream shaped like the analyzer's
// defaults — 32 invocations of one 16-op × 256-row profile (the
// BenchmarkAnalyzeProfile geometry), a 64-window history, a trailer with
// 256-entry PC sets — and returns the recorded references it carried.
func wireBenchEmit(enc *wire.Encoder) uint64 {
	const nOps, rows, invocations, windows = 16, 256, 32, 64
	hdr := wire.Header{
		Workload: "bench", Machine: "P4",
		CacheName: "P4-L2", CacheSize: 512 << 10, CacheAssoc: 8, CacheLine: 64,
		WarmupRows: 8, FlushCycleGap: 1 << 20,
		AnalyzerPerRef: 3, AnalyzerFixed: 1000,
		HistoryWindows: 64, PhaseMissDelta: 0.02, PhaseChurnDelta: 0.5,
	}
	prof := wire.Profile{
		Alpha:  0.9,
		PCs:    make([]uint64, nOps),
		IsLoad: make([]bool, nOps),
		Rows:   rows,
		Cells:  make([]uint64, nOps*rows),
	}
	for i := range prof.PCs {
		prof.PCs[i] = uint64(0x1000 + i*16)
		prof.IsLoad[i] = i%4 != 3
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < nOps; c++ {
			i := r*nOps + c
			switch {
			case r > rows/2 && c == nOps-1: // a trace that exited early
				prof.Cells[i] = wire.NoCell
			case c%2 == 0: // streaming column: large positive deltas
				prof.Cells[i] = uint64(r)*4096 + uint64(c)*64
				prof.Recorded++
			default: // resident column: small alternating deltas
				prof.Cells[i] = uint64(r%8)*64 + uint64(c)*8192
				prof.Recorded++
			}
		}
	}
	pcs := make([]uint64, 256)
	for i := range pcs {
		pcs[i] = uint64(0x1000 + i*24)
	}
	enc.Header(hdr)
	var refs uint64
	for i := 0; i < invocations; i++ {
		enc.Invocation(uint64(i+1)*100_000, 1)
		enc.Profile(prof)
		refs += uint64(prof.Recorded)
	}
	enc.History(wire.HistoryMeta{Total: windows, Cap: windows, Windows: windows})
	for i := 0; i < windows; i++ {
		enc.Window(wire.Window{
			Invocation: i + 1, Cycles: uint64(i+1) * 100_000, Refs: nOps * rows,
			Accesses: nOps * rows, Misses: uint64(200 + i),
			WindowMissRatio: 0.05, CumMissRatio: 0.05,
			Delinquent: 12, NewDelinquent: i % 3, DelinquentHash: uint64(i) * 0x9e3779b97f4a7c15,
			Jaccard: 0.92, PhaseChange: i%16 == 0, StridedLoads: 4, TopStride: 64,
			WSLines: 4096,
		})
	}
	enc.Trailer(wire.Trailer{
		InstrumentEvents: 1 << 20, GuestCycles: 1 << 30, TotalCycles: 1<<30 + 1<<24,
		Instrs: 1 << 28, HWAccesses: 1 << 26, HWMisses: 1 << 20, HWEvictions: 1 << 19,
		CandidatePCs: pcs, TracePCs: pcs[:64],
	})
	return refs
}

// BenchmarkWireEncode measures umi-profile/v1 emission (framing, delta
// encoding, bitmaps) for the stream wireBenchEmit describes. ns/ref is the
// per-recorded-reference cost the capture process pays on the guest
// thread; it belongs in BENCH_umi.json next to the analyzer's ns/ref.
func BenchmarkWireEncode(b *testing.B) {
	var refs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.NewEncoder(io.Discard)
		refs = wireBenchEmit(enc)
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
}

// BenchmarkWireDecode measures the bounded-memory decode of the same
// stream — the cost umid pays per ingested reference before any analysis
// runs.
func BenchmarkWireDecode(b *testing.B) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	refs := wireBenchEmit(enc)
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		if _, err := dec.Header(); err != nil {
			b.Fatal(err)
		}
		for {
			rec, err := dec.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, done := rec.(*wire.Trailer); done {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
}

// BenchmarkWireEncodeV2 measures umi-profile/v2 emission — the v1 work
// plus predictor selection, the cell delta pre-transform, and per-frame
// DEFLATE — and reports the compression ratio the extra cycles buy
// (v1 bytes over v2 bytes for the same record stream).
func BenchmarkWireEncodeV2(b *testing.B) {
	var v1 bytes.Buffer
	e1 := wire.NewEncoder(&v1)
	refs := wireBenchEmit(e1)
	if err := e1.Flush(); err != nil {
		b.Fatal(err)
	}
	var v2Len int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var v2 countingWriter
		enc := wire.NewEncoderV2(&v2)
		wireBenchEmit(enc)
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		v2Len = v2.n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
	b.ReportMetric(float64(v1.Len())/float64(v2Len), "x-ratio")
}

// countingWriter discards while counting, so encode benchmarks measure
// compressed output size without buffer-growth noise.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkWireDecodeV2 measures the v2 decode path: per-frame inflate
// plus the predictor-driven cell reconstruction umid pays per ingested
// reference.
func BenchmarkWireDecodeV2(b *testing.B) {
	// MB/s counts the v1 encoding of the same records, so it compares
	// with BenchmarkWireDecode's; counted over the compressed input it
	// would understate the same work by the compression ratio.
	var v1 countingWriter
	e1 := wire.NewEncoder(&v1)
	wireBenchEmit(e1)
	if err := e1.Flush(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	enc := wire.NewEncoderV2(&buf)
	refs := wireBenchEmit(enc)
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	b.SetBytes(int64(v1.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		if _, err := dec.Header(); err != nil {
			b.Fatal(err)
		}
		for {
			rec, err := dec.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, done := rec.(*wire.Trailer); done {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
}

// BenchmarkReplayStream measures capture once, analyze many on recorded
// guests: introspect.ReplayStream, which decodes on the caller's goroutine
// and analyzes on the replay's sequencer, over the v2 streams of 181.mcf,
// em3d and mysql, each recorded once. One op replays
// all three; ns/ref is per recorded reference (profile cell) and covers
// decode, stride discovery and mini-simulation — the work umid does per
// ingested reference, which BenchmarkWireDecodeV2's synthetic stream and
// BenchmarkAnalyzeProfile's all-strided columns understate.
func BenchmarkReplayStream(b *testing.B) {
	var streams [][]byte
	var refs uint64
	for _, name := range []string{"181.mcf", "em3d", "mysql"} {
		var v1, v2 bytes.Buffer
		res, err := introspect.EmitStandalone(introspect.SessionConfig{Workload: name}, &v1)
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.Transcode(&v2, &v1, wire.Version2); err != nil {
			b.Fatal(err)
		}
		streams = append(streams, v2.Bytes())
		refs += res.Report.SimulatedRefs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			if _, err := introspect.ReplayStream(bytes.NewReader(s), 2); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
}

// BenchmarkAblationPolicy measures the mini-simulator's sensitivity to the
// replacement policy (§5: "The simulator implements an LRU replacement
// policy although other schemes are possible"). The paper's observation —
// results depend far more on profile length than simulator detail —
// predicts small deltas.
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.PLRU} {
			run := ablationRun(b, "181.mcf", func(c *iumi.Config) {
				c.MiniSimCache.Policy = pol
			})
			b.ReportMetric(run.Report.SimMissRatio, "ratio_"+pol.String())
		}
	}
}

// BenchmarkAblationAdaptiveFrequency measures the §7.2 future-work
// extension: per-trace frequency thresholds back off boring traces,
// trading overhead for coverage on gcc-like codes.
func BenchmarkAblationAdaptiveFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed := ablationRun(b, "176.gcc", nil)
		adaptive := ablationRun(b, "176.gcc", func(c *iumi.Config) {
			c.AdaptiveFrequency = true
			c.MaxFrequencyThreshold = 256
		})
		b.ReportMetric(float64(fixed.RT.Overhead), "overhead_fixed_cy")
		b.ReportMetric(float64(adaptive.RT.Overhead), "overhead_adaptive_cy")
		b.ReportMetric(float64(fixed.Report.InstrumentEvents), "events_fixed")
		b.ReportMetric(float64(adaptive.Report.InstrumentEvents), "events_adaptive")
	}
}

// BenchmarkAblationICache quantifies the unified-L2 perturbation from
// instruction fetches that the paper conjectures explains part of the K7
// correlation gap (§6.2): ground truth with an instruction cache vs the
// data-only view UMI simulates.
func BenchmarkAblationICache(b *testing.B) {
	w, _ := workloads.ByName("176.gcc")
	for i := 0; i < b.N; i++ {
		plain := cache.NewK7()
		m := vm.New(w.Program(), plain)
		if err := m.Run(harness.MaxInstrs); err != nil {
			b.Fatal(err)
		}
		withI := cache.NewK7()
		withI.EnableICache(cache.K7L1I)
		m2 := vm.New(w.Program(), withI)
		if err := m2.Run(harness.MaxInstrs); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.L2Stats.MissRatio(), "l2_ratio_no_icache")
		b.ReportMetric(withI.L2Stats.MissRatio(), "l2_ratio_icache")
		b.ReportMetric(float64(withI.L1IStats.Misses), "icache_misses")
	}
}

// BenchmarkOptBypass measures the second online optimization (the
// conclusion's "enhance ... cache replacement policies"): non-temporal
// rewriting of a streaming delinquent load that would otherwise thrash a
// 384 KiB L2-resident working set out of the 512 KiB L2.
func BenchmarkOptBypass(b *testing.B) {
	prog := bypassProgram(b)
	for i := 0; i < b.N; i++ {
		run := func(withNT bool) (uint64, int) {
			h := harness.P4.Hierarchy(false)
			m := vm.New(prog, h)
			rt := rio.NewRuntime(m)
			s := iumi.Attach(rt, harness.UMIParams(harness.P4))
			var nt *prefetch.NTOptimizer
			if withNT {
				nt = prefetch.NewNTOptimizer()
				s.OnAnalyzed = nt.Hook()
			}
			if err := rt.Run(harness.MaxInstrs); err != nil {
				b.Fatal(err)
			}
			s.Finish()
			rewritten := 0
			if nt != nil {
				rewritten = len(nt.Rewritten)
			}
			return h.L2Stats.Misses, rewritten
		}
		plain, _ := run(false)
		bypass, rewritten := run(true)
		b.ReportMetric(float64(plain), "misses_plain")
		b.ReportMetric(float64(bypass), "misses_bypass")
		b.ReportMetric(float64(rewritten), "loads_rewritten")
	}
}

// bypassProgram streams one line per iteration while cycling six loads
// over a 384 KiB resident region.
func bypassProgram(b *testing.B) *programpkg.Program {
	bl := programpkg.NewBuilder("bypass-bench")
	e := bl.Block("entry")
	e.MovI(isa.R2, int64(programpkg.HeapBase))
	e.MovI(isa.R5, int64(programpkg.HeapBase+(64<<20)))
	e.MovI(isa.R0, 0)
	e.MovI(isa.R6, 1_000_000)
	l := bl.Block("loop")
	l.Load(isa.R1, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0))
	l.Add(isa.R7, isa.R7, isa.R1)
	for j := 0; j < 6; j++ {
		l.AddI(isa.R12, isa.R0, int64(j)*1024)
		l.AndI(isa.R12, isa.R12, (48<<10)-1)
		l.Load(isa.R4, 8, isa.MemIdx(isa.R5, isa.R12, 8, 0))
		l.Add(isa.R7, isa.R7, isa.R4)
	}
	l.AddI(isa.R0, isa.R0, 8)
	l.Br(isa.CondLT, isa.R0, isa.R6, "loop")
	bl.Block("done").Halt()
	p, err := bl.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	return p
}
