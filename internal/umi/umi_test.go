package umi

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"umi/internal/cache"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
)

func TestAddressProfileRecording(t *testing.T) {
	p := NewAddressProfile([]uint64{100, 200}, []bool{true, false}, 4)
	if p.Full() {
		t.Fatal("fresh profile must not be full")
	}
	for r := 0; r < 4; r++ {
		row, ok := p.OpenRow()
		if !ok || row != r {
			t.Fatalf("OpenRow = %d, %v; want %d, true", row, ok, r)
		}
		p.Record(row, 0, uint64(1000+r*8))
		if r%2 == 0 {
			p.Record(row, 1, uint64(2000+r*8))
		}
	}
	if !p.Full() {
		t.Error("profile must be full after rowCap rows")
	}
	if _, ok := p.OpenRow(); ok {
		t.Error("OpenRow must fail when full")
	}
	if a, ok := p.At(2, 0); !ok || a != 1016 {
		t.Errorf("At(2,0) = %d, %v", a, ok)
	}
	if _, ok := p.At(1, 1); ok {
		t.Error("unrecorded cell must report absent")
	}
	col := p.Column(1)
	if len(col) != 2 || col[0] != 2000 || col[1] != 2016 {
		t.Errorf("Column(1) = %v", col)
	}
	p.Reset()
	if p.Rows() != 0 || p.Full() {
		t.Error("Reset must empty the profile")
	}
	if _, ok := p.At(0, 0); ok {
		t.Error("Reset must clear cells")
	}
}

func TestDominantStride(t *testing.T) {
	cases := []struct {
		addrs  []uint64
		stride int64
		minFr  float64
	}{
		{[]uint64{0, 8, 16, 24, 32}, 8, 0.99},
		{[]uint64{100, 92, 84, 76}, -8, 0.99},
		{[]uint64{0, 64, 128, 999, 1063, 1127}, 64, 0.7},
		{[]uint64{0, 8}, 0, 0}, // too short
	}
	for i, c := range cases {
		s, f := DominantStride(c.addrs)
		if c.minFr == 0 {
			if f != 0 {
				t.Errorf("case %d: frac = %v, want 0", i, f)
			}
			continue
		}
		if s != c.stride || f < c.minFr {
			t.Errorf("case %d: stride=%d frac=%.2f, want stride=%d frac>=%.2f",
				i, s, f, c.stride, c.minFr)
		}
	}
}

func TestDominantStrideQuick(t *testing.T) {
	// Property: for any base and positive stride, a pure strided sequence
	// reports exactly that stride with confidence 1.
	f := func(base uint32, strideSel uint8, nSel uint8) bool {
		stride := int64(strideSel%64) + 1
		n := int(nSel%32) + 3
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(base) + uint64(int64(i)*stride)
		}
		s, fr := DominantStride(addrs)
		return s == stride && fr == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refDominantStride is the brute-force reference for the stride rule:
// sort a column's deltas and count runs, the winner ranked by count, then
// smaller magnitude, then the positive stride.
func refDominantStride(addrs []uint64) (stride int64, frac float64) {
	if len(addrs) < 3 {
		return 0, 0
	}
	deltas := make([]int64, 0, len(addrs)-1)
	for i := 1; i < len(addrs); i++ {
		deltas = append(deltas, int64(addrs[i]-addrs[i-1]))
	}
	slices.Sort(deltas)
	best, bestN := int64(0), 0
	for i := 0; i < len(deltas); {
		j := i + 1
		for j < len(deltas) && deltas[j] == deltas[i] {
			j++
		}
		d, n := deltas[i], j-i
		if n > bestN ||
			(n == bestN && (abs64(d) < abs64(best) || (abs64(d) == abs64(best) && d > best))) {
			best, bestN = d, n
		}
		i = j
	}
	return best, float64(bestN) / float64(len(deltas))
}

// checkStride is the stride rule's oracle: the reference's stride and
// fraction whenever the reference's winner holds at least half of the
// column's deltas, and 0, 0 otherwise.
func checkStride(addrs []uint64, stride int64, frac float64) error {
	ws, wf := refDominantStride(addrs)
	if wf < 0.5 {
		ws, wf = 0, 0
	}
	if stride != ws || frac != wf {
		return fmt.Errorf("stride %d frac %v, reference %d %v (over %d addresses)",
			stride, frac, ws, wf, len(addrs))
	}
	return nil
}

// TestDominantStrideReference checks the two-counter stride rule against
// the sort-and-count reference on the columns where a bounded table or a
// vote could go wrong: exact-half ties between opposite strides and
// between a zero and a non-zero delta, more than 16 distinct deltas,
// majorities just above, at and below half, and columns read in place from
// profiles with unrecorded cells, down to fewer than three recorded.
func TestDominantStrideReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shuffled := func(deltas []int64) []uint64 {
		rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
		addrs := []uint64{rng.Uint64() >> 2}
		for _, d := range deltas {
			addrs = append(addrs, addrs[len(addrs)-1]+uint64(d))
		}
		return addrs
	}
	stride := func() int64 { return 8 * (1 + rng.Int63n(64)) }
	// Each generator returns a column of n deltas; n is even for the ties.
	gens := map[string]func(n int) []uint64{
		"opposite-tie": func(n int) []uint64 {
			s, deltas := stride(), make([]int64, n)
			for i := range deltas {
				deltas[i] = s
				if i%2 == 1 {
					deltas[i] = -s
				}
			}
			return shuffled(deltas)
		},
		"zero-tie": func(n int) []uint64 {
			s, deltas := stride(), make([]int64, n)
			for i := 0; i < n; i += 2 {
				deltas[i] = s
			}
			return shuffled(deltas)
		},
		"many-distinct": func(n int) []uint64 {
			// A stride holding about half the column among 17 or more
			// distinct noise deltas.
			s, deltas := stride(), make([]int64, n)
			hold := n/2 + rng.Intn(5) - 2
			for i := range deltas {
				deltas[i] = s
				if i >= hold {
					deltas[i] = s + 8*int64(i)
				}
			}
			return shuffled(deltas)
		},
		"small-alphabet": func(n int) []uint64 {
			s, deltas := stride(), make([]int64, n)
			for i := range deltas {
				deltas[i] = s * (rng.Int63n(5) - 2)
			}
			return shuffled(deltas)
		},
	}
	for name, gen := range gens {
		for iter := 0; iter < 400; iter++ {
			n := 2 * (1 + rng.Intn(40))
			if name == "many-distinct" {
				n = 34 + 2*rng.Intn(60)
			}
			addrs := gen(n)
			if name == "opposite-tie" || name == "zero-tie" {
				if _, wf := refDominantStride(addrs); wf != 0.5 {
					t.Fatalf("%s: generator made frac %v, want an exact tie", name, wf)
				}
			}
			s, f := DominantStride(addrs)
			if err := checkStride(addrs, s, f); err != nil {
				t.Fatalf("%s #%d: %v", name, iter, err)
			}

			// The same column read in place from a profile: a random
			// operation among up to five, with unrecorded cells around
			// its addresses and noise in the other columns.
			nOps := 1 + rng.Intn(5)
			col := rng.Intn(nOps)
			rows := len(addrs) + rng.Intn(len(addrs)+1)
			p := NewAddressProfile(make([]uint64, nOps), make([]bool, nOps), rows)
			next := 0
			for r := 0; r < rows; r++ {
				row, _ := p.OpenRow()
				for c := 0; c < nOps; c++ {
					switch {
					case c != col:
						if rng.Intn(3) > 0 {
							p.Record(row, c, rng.Uint64()>>2)
						}
					case next < len(addrs) && (rows-r == len(addrs)-next || rng.Intn(2) == 0):
						p.Record(row, c, addrs[next])
						next++
					}
				}
			}
			if next != len(addrs) {
				t.Fatalf("%s #%d: recorded %d of %d addresses", name, iter, next, len(addrs))
			}
			s, f = dominantStride(p.cells[:p.Rows()*nOps], col, nOps)
			if err := checkStride(p.Column(col), s, f); err != nil {
				t.Fatalf("%s #%d in profile (%d ops, %d rows): %v", name, iter, nOps, rows, err)
			}
		}
	}

	// Fewer than three recorded cells, and a column whose cells are all
	// holes, give no stride.
	for rec := 0; rec < 3; rec++ {
		p := NewAddressProfile([]uint64{1, 2}, []bool{true, true}, 8)
		for r := 0; r < 8; r++ {
			row, _ := p.OpenRow()
			p.Record(row, 1, uint64(r)*64)
			if r < rec {
				p.Record(row, 0, uint64(r)*64)
			}
		}
		if s, f := dominantStride(p.cells[:16], 0, 2); s != 0 || f != 0 {
			t.Errorf("%d recorded cells: stride %d frac %v, want 0, 0", rec, s, f)
		}
		if s, f := DominantStride(p.Column(0)); s != 0 || f != 0 {
			t.Errorf("DominantStride over %d addresses: stride %d frac %v, want 0, 0", rec, s, f)
		}
	}
}

func makeTrace(instrs []isa.Instr) *rio.Fragment {
	pcs := make([]uint64, len(instrs))
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(i)*isa.InstrBytes
	}
	f := &rio.Fragment{Start: pcs[0], Instrs: instrs, PCs: pcs, IsTrace: true}
	return f
}

func TestSelectOpsFiltering(t *testing.T) {
	instrs := []isa.Instr{
		{Op: isa.OpLoad, Rd: isa.R0, Size: 8, Mem: isa.Mem(isa.R1, 0)},    // kept
		{Op: isa.OpLoad, Rd: isa.R0, Size: 8, Mem: isa.Mem(isa.SP, 16)},   // stack: filtered
		{Op: isa.OpStore, Rs1: isa.R0, Size: 8, Mem: isa.Mem(isa.BP, -8)}, // stack: filtered
		{Op: isa.OpLoad, Rd: isa.R0, Size: 8, Mem: isa.MemAbs(0x8000000)}, // static: filtered
		{Op: isa.OpStore, Rs1: isa.R2, Size: 4, Mem: isa.Mem(isa.R3, 32)}, // kept
		{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2, Mem: isa.NoMem},
		{Op: isa.OpJmp, Imm: 0x400000, Mem: isa.NoMem},
	}
	f := makeTrace(instrs)
	pcs, isLoad, _, candidates := selectOps(f, true, 256)
	if candidates != 5 {
		t.Errorf("candidates = %d, want 5", candidates)
	}
	if len(pcs) != 2 {
		t.Fatalf("selected = %d ops, want 2", len(pcs))
	}
	if !isLoad[0] || isLoad[1] {
		t.Errorf("isLoad = %v, want [true false]", isLoad)
	}
	// Filtering off: all five memory ops selected.
	pcs, _, _, _ = selectOps(f, false, 256)
	if len(pcs) != 5 {
		t.Errorf("unfiltered selected = %d, want 5", len(pcs))
	}
	// Cap respected.
	pcs, _, _, _ = selectOps(f, false, 3)
	if len(pcs) != 3 {
		t.Errorf("capped selected = %d, want 3", len(pcs))
	}
}

func TestSelectOpsDeduplicates(t *testing.T) {
	ld := isa.Instr{Op: isa.OpLoad, Rd: isa.R0, Size: 8, Mem: isa.Mem(isa.R1, 0)}
	f := makeTrace([]isa.Instr{ld, ld, isa.Instr{Op: isa.OpJmp, Mem: isa.NoMem}})
	// Same PC appearing twice (unrolled trace): force duplicate PCs.
	f.PCs[1] = f.PCs[0]
	pcs, _, cols, candidates := selectOps(f, true, 256)
	if len(pcs) != 1 || candidates != 1 {
		t.Errorf("selected=%d candidates=%d, want 1, 1", len(pcs), candidates)
	}
	// Both copies record into the one column; the jump records nothing.
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 0 || cols[2] != -1 {
		t.Errorf("cols = %v, want [0 0 -1]", cols)
	}
}

func testConfig() Config {
	cfg := DefaultConfig(cache.P4L2)
	cfg.SamplePeriod = 500
	cfg.FrequencyThreshold = 4
	cfg.ReinstrumentGap = 50_000
	return cfg
}

// strideWorkload builds a program whose hot loop walks a large array with
// a fixed stride, guaranteeing a high L2 miss ratio on the walking load
// and near-perfect hits on a small scratch load.
func strideWorkload(t *testing.T, elems int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("stride")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)                       // i
	e.MovI(isa.R1, elems)                   // limit
	e.MovI(isa.R2, int64(program.HeapBase)) // big array
	e.MovI(isa.R5, int64(program.GlobalBase))
	e.MovI(isa.R7, 0) // accumulator
	l := b.Block("loop")
	l.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0)) // strided: delinquent
	l.Load(isa.R4, 8, isa.Mem(isa.R5, 0))               // scratch: always hits
	l.Add(isa.R7, isa.R7, isa.R3)
	l.AddI(isa.R0, isa.R0, 8) // stride 64 bytes
	l.Br(isa.CondLT, isa.R0, isa.R1, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func runUMI(t *testing.T, p *program.Program, cfg Config) (*System, *rio.Runtime) {
	t.Helper()
	h := cache.NewP4(false)
	m := vm.New(p, h)
	rt := rio.NewRuntime(m)
	s := Attach(rt, cfg)
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	return s, rt
}

func TestEndToEndDelinquentLoad(t *testing.T) {
	p := strideWorkload(t, 600_000)
	s, _ := runUMI(t, p, testConfig())
	rep := s.Report()
	if rep.AnalyzerInvocations == 0 {
		t.Fatalf("analyzer never ran: %v", rep)
	}
	if rep.ProfilesCollected == 0 {
		t.Fatal("no profiles collected")
	}
	// The strided load must be predicted delinquent; the scratch load not.
	loopPC := p.Symbols["loop"]
	stridedPC := loopPC                  // first instr of loop block
	scratchPC := loopPC + isa.InstrBytes // second
	if !rep.Delinquent[stridedPC] {
		t.Errorf("strided load %#x not in P; P=%v", stridedPC, rep.Delinquent)
	}
	if rep.Delinquent[scratchPC] {
		t.Errorf("scratch load %#x wrongly in P", scratchPC)
	}
	// Stride discovery: 64-byte dominant stride.
	si, ok := rep.Strides[stridedPC]
	if !ok || si.Stride != 64 {
		t.Errorf("stride = %+v, want 64", si)
	}
	// The simulated miss ratio should be substantial (the workload
	// streams through memory).
	if rep.SimMissRatio < 0.2 {
		t.Errorf("SimMissRatio = %.3f, want >= 0.2", rep.SimMissRatio)
	}
}

// manyLoopsWorkload is gcc-like: many distinct loops, each just hot enough
// to become a trace but individually lukewarm. Sample-based reinforcement
// should decline to instrument most of them.
func manyLoopsWorkload(t *testing.T, loops int, iters int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("manyloops")
	e := b.Block("entry")
	e.MovI(isa.R2, int64(program.HeapBase))
	for i := 0; i < loops; i++ {
		name := "loop" + string(rune('A'+i/26)) + string(rune('a'+i%26))
		pre := b.Block("pre_" + name)
		pre.MovI(isa.R0, 0)
		l := b.Block(name)
		l.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R0, 8, int64(i)*4096))
		l.AddI(isa.R0, isa.R0, 1)
		l.BrI(isa.CondLT, isa.R0, iters, name)
	}
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestSamplingReducesOverhead(t *testing.T) {
	p := manyLoopsWorkload(t, 40, 120)

	cfgNoSamp := testConfig()
	cfgNoSamp.UseSampling = false
	sNo, rtNo := runUMI(t, p, cfgNoSamp)

	cfgSamp := testConfig()
	cfgSamp.UseSampling = true
	cfgSamp.FrequencyThreshold = 8
	sYes, rtYes := runUMI(t, p, cfgSamp)

	repNo, repYes := sNo.Report(), sYes.Report()
	if repNo.InstrumentEvents == 0 {
		t.Fatal("no-sampling mode must instrument traces")
	}
	if repYes.InstrumentEvents >= repNo.InstrumentEvents {
		t.Errorf("sampling instrumented %d traces, no-sampling %d; sampling must defer lukewarm traces",
			repYes.InstrumentEvents, repNo.InstrumentEvents)
	}
	if rtYes.Overhead >= rtNo.Overhead {
		t.Errorf("sampling overhead %d >= no-sampling overhead %d",
			rtYes.Overhead, rtNo.Overhead)
	}
}

func TestProfilingIsBursty(t *testing.T) {
	// After analysis the trace must run clean: the number of profiled
	// rows is bounded by profiles * AddressProfileRows even though the
	// loop runs far more iterations.
	p := strideWorkload(t, 500_000)
	cfg := testConfig()
	s, _ := runUMI(t, p, cfg)
	rep := s.Report()
	maxRows := uint64(rep.ProfilesCollected) * uint64(cfg.AddressProfileRows)
	if rep.SimulatedRefs > 2*maxRows*4 {
		t.Errorf("SimulatedRefs = %d, exceeds plausible burst budget %d",
			rep.SimulatedRefs, 2*maxRows*4)
	}
	// And far fewer than total loop iterations (500k iterations, 2
	// profiled ops each).
	if rep.SimulatedRefs >= 1_000_000 {
		t.Errorf("SimulatedRefs = %d: profiling is not bursty", rep.SimulatedRefs)
	}
}

func TestAdaptiveThresholdDecreases(t *testing.T) {
	p := strideWorkload(t, 500_000)
	cfg := testConfig()
	cfg.Adaptive = true
	s, _ := runUMI(t, p, cfg)
	lowest := 1.0
	for _, ts := range s.traces {
		if ts.alpha < lowest {
			lowest = ts.alpha
		}
	}
	if s.an.Invocations >= 3 && lowest > cfg.DelinquencyInit-cfg.DelinquencyStep {
		t.Errorf("after %d invocations lowest alpha = %.2f; adaptive threshold did not move",
			s.an.Invocations, lowest)
	}
	if lowest < cfg.DelinquencyMin {
		t.Errorf("alpha = %.2f fell below the floor %.2f", lowest, cfg.DelinquencyMin)
	}
}

func TestBarrenTraceNotInstrumented(t *testing.T) {
	// A loop whose only memory refs are stack-relative: filtering leaves
	// nothing, so UMI must not instrument it.
	b := program.NewBuilder("stackonly")
	e := b.Block("entry")
	e.MovI(isa.R0, 0)
	e.AddI(isa.SP, isa.SP, -64)
	l := b.Block("loop")
	l.Load(isa.R1, 8, isa.Mem(isa.SP, 8))
	l.Store(isa.R1, 8, isa.Mem(isa.BP, -16))
	l.AddI(isa.R0, isa.R0, 1)
	l.BrI(isa.CondLT, isa.R0, 200_000, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	s, _ := runUMI(t, p, testConfig())
	rep := s.Report()
	if rep.ProfiledOps != 0 {
		t.Errorf("ProfiledOps = %d, want 0 (all refs stack-relative)", rep.ProfiledOps)
	}
	if rep.AnalyzerInvocations != 0 {
		t.Errorf("AnalyzerInvocations = %d, want 0", rep.AnalyzerInvocations)
	}
	if rep.CandidateOps == 0 {
		t.Error("candidates must still be counted")
	}
}

func TestAnalyzerWarmupSuppressesColdMisses(t *testing.T) {
	cfg := testConfig()
	an := NewAnalyzer(&cfg)
	// One op touching the same line every execution: after warm-up, all
	// hits. Without warm-up the first access would count as a miss.
	p := NewAddressProfile([]uint64{0x400000}, []bool{true}, 16)
	for i := 0; i < 16; i++ {
		row, _ := p.OpenRow()
		p.Record(row, 0, 0x1000)
	}
	an.BeginInvocation(0)
	an.AnalyzeProfile(p, 0.9)
	st := an.OpStats()[0x400000]
	if st == nil {
		t.Fatal("no op stats recorded")
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d, want 0 (warm-up must absorb the compulsory miss)", st.Misses)
	}
	if st.Accesses != 14 {
		t.Errorf("accesses = %d, want 14 (16 rows - 2 warm-up)", st.Accesses)
	}
}

func TestAnalyzerFlushAfterGap(t *testing.T) {
	cfg := testConfig()
	cfg.FlushCycleGap = 1000
	an := NewAnalyzer(&cfg)
	p := NewAddressProfile([]uint64{0x400000}, []bool{true}, 4)
	for i := 0; i < 4; i++ {
		row, _ := p.OpenRow()
		p.Record(row, 0, 0x1000)
	}
	an.BeginInvocation(0)
	an.AnalyzeProfile(p, 0.9)
	an.BeginInvocation(500) // within gap: no flush
	if an.Flushes != 0 {
		t.Errorf("Flushes = %d, want 0", an.Flushes)
	}
	an.BeginInvocation(5000) // beyond gap: flush
	if an.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", an.Flushes)
	}
}

func TestAnalyzerDelinquencyThreshold(t *testing.T) {
	cfg := testConfig()
	an := NewAnalyzer(&cfg)
	// Strided load missing every access (64B lines, 128B stride over a
	// huge range) vs a load hitting one line.
	pMiss := NewAddressProfile([]uint64{0xA0}, []bool{true}, 64)
	for i := 0; i < 64; i++ {
		row, _ := pMiss.OpenRow()
		pMiss.Record(row, 0, uint64(i)*4096)
	}
	an.BeginInvocation(0)
	an.AnalyzeProfile(pMiss, 0.9)
	if !an.Delinquent()[0xA0] {
		t.Error("always-missing load must be delinquent at alpha 0.9")
	}
	pHit := NewAddressProfile([]uint64{0xB0}, []bool{true}, 64)
	for i := 0; i < 64; i++ {
		row, _ := pHit.OpenRow()
		pHit.Record(row, 0, 0x40)
	}
	an.AnalyzeProfile(pHit, 0.9)
	if an.Delinquent()[0xB0] {
		t.Error("always-hitting load must not be delinquent")
	}
}

func TestStoreNeverDelinquent(t *testing.T) {
	cfg := testConfig()
	an := NewAnalyzer(&cfg)
	p := NewAddressProfile([]uint64{0xC0}, []bool{false}, 32) // a store
	for i := 0; i < 32; i++ {
		row, _ := p.OpenRow()
		p.Record(row, 0, uint64(i)*4096)
	}
	an.BeginInvocation(0)
	an.AnalyzeProfile(p, 0.1)
	if an.Delinquent()[0xC0] {
		t.Error("stores must not enter the delinquent load set")
	}
}

func TestFinishFlushesLiveProfiles(t *testing.T) {
	// A loop short enough that no analyzer trigger fires on its own.
	p := strideWorkload(t, 30_000)
	cfg := testConfig()
	cfg.UseSampling = false
	cfg.AddressProfileRows = 100_000 // never fills
	cfg.TraceProfileLen = 1_000_000
	h := cache.NewP4(false)
	m := vm.New(p, h)
	rt := rio.NewRuntime(m)
	s := Attach(rt, cfg)
	if err := rt.Run(10_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Report().AnalyzerInvocations != 0 {
		t.Fatal("premise broken: analyzer ran before Finish")
	}
	s.Finish()
	rep := s.Report()
	if rep.AnalyzerInvocations != 1 {
		t.Errorf("AnalyzerInvocations after Finish = %d, want 1", rep.AnalyzerInvocations)
	}
	if rep.SimulatedRefs == 0 {
		t.Error("Finish must simulate pending rows")
	}
}

func TestReportStringer(t *testing.T) {
	p := strideWorkload(t, 100_000)
	s, _ := runUMI(t, p, testConfig())
	got := s.Report().String()
	if got == "" {
		t.Error("empty report string")
	}
}

func TestAdaptiveFrequencyTunesPerTrace(t *testing.T) {
	// A workload with one delinquent hot loop and many boring loops:
	// after several analyses, the delinquent trace's threshold must be
	// at or below the initial value and boring traces' thresholds above.
	b := program.NewBuilder("mixed")
	e := b.Block("entry")
	e.MovI(isa.R2, int64(program.HeapBase))
	e.MovI(isa.R5, int64(program.GlobalBase))
	e.MovI(isa.R0, 0)
	hot := b.Block("hotloop")
	hot.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R0, 8, 0)) // streaming: delinquent
	hot.AddI(isa.R0, isa.R0, 8)
	hot.BrI(isa.CondLT, isa.R0, 1_600_000, "hotloop")
	e2 := b.Block("mid")
	e2.MovI(isa.R0, 0)
	cold := b.Block("coldloop")
	cold.AndI(isa.R12, isa.R0, 63)
	cold.Load(isa.R4, 8, isa.MemIdx(isa.R5, isa.R12, 8, 0)) // resident: boring
	cold.AddI(isa.R0, isa.R0, 1)
	cold.BrI(isa.CondLT, isa.R0, 1_000_000, "coldloop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}

	cfg := testConfig()
	cfg.AdaptiveFrequency = true
	cfg.MaxFrequencyThreshold = 256
	s, _ := runUMI(t, p, cfg)

	hotTS := s.traces[p.Symbols["hotloop"]]
	coldTS := s.traces[p.Symbols["coldloop"]]
	if hotTS == nil || coldTS == nil {
		t.Fatalf("traces missing: hot=%v cold=%v", hotTS, coldTS)
	}
	if hotTS.analyses == 0 || coldTS.analyses == 0 {
		t.Fatalf("both traces must be analyzed (hot %d, cold %d)", hotTS.analyses, coldTS.analyses)
	}
	if hotTS.freqThresh > cfg.FrequencyThreshold {
		t.Errorf("delinquent trace threshold = %d, must not exceed initial %d",
			hotTS.freqThresh, cfg.FrequencyThreshold)
	}
	if coldTS.freqThresh <= cfg.FrequencyThreshold {
		t.Errorf("boring trace threshold = %d, must back off above initial %d",
			coldTS.freqThresh, cfg.FrequencyThreshold)
	}
	if coldTS.freqThresh > cfg.MaxFrequencyThreshold {
		t.Errorf("threshold %d exceeded the cap %d", coldTS.freqThresh, cfg.MaxFrequencyThreshold)
	}
}

// The global trace profile (8192 rows across all live profiles in the
// paper) must trigger the analyzer even when no single address profile
// fills.
func TestGlobalTraceProfileTrigger(t *testing.T) {
	p := manyLoopsWorkload(t, 20, 400)
	cfg := testConfig()
	cfg.UseSampling = false
	cfg.AddressProfileRows = 1 << 14 // per-trace trigger can never fire
	cfg.TraceProfileLen = 512        // global trigger fires quickly
	s, _ := runUMI(t, p, cfg)
	rep := s.Report()
	if rep.AnalyzerInvocations == 0 {
		t.Fatal("global trace-profile trigger never fired")
	}
	// Rows per invocation are bounded by the global cap plus the rows
	// recorded by fragments entered before their prolog saw the full
	// buffer.
	if rep.SimulatedRefs == 0 {
		t.Fatal("nothing simulated")
	}
}

// AddressProfileOps caps the instrumented operations per trace.
func TestAddressProfileOpsCap(t *testing.T) {
	b := program.NewBuilder("manyops")
	e := b.Block("entry")
	e.MovI(isa.R2, int64(program.HeapBase))
	e.MovI(isa.R0, 0)
	l := b.Block("loop")
	for j := 0; j < 12; j++ {
		l.Load(isa.R3, 8, isa.MemIdx(isa.R2, isa.R0, 8, int64(j)*128))
	}
	l.AddI(isa.R0, isa.R0, 8)
	l.BrI(isa.CondLT, isa.R0, 2_000_000, "loop")
	b.Block("done").Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	cfg := testConfig()
	cfg.AddressProfileOps = 5
	s, _ := runUMI(t, p, cfg)
	if got := s.Report().ProfiledOps; got != 5 {
		t.Errorf("ProfiledOps = %d, want capped at 5", got)
	}
}
