package rio_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"umi/internal/cache"
	"umi/internal/harness"
	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/vm"
)

// Transparency: a random program must behave identically under plain
// interpretation and under the code cache — with traces, links, sample
// points, block-cache churn, trace replacement and instrumentation hooks
// on — down to the modelled cycle count, the ordered reference stream and
// the error it ends with. DynamoRIO's transparency is the paper's
// foundation; this is the substrate's half of the determinism contract.
//
// Both runs queue the hierarchy's work to a worker goroutine. A third arm
// drives the program with Machine.Step, which applies every reference to
// the hierarchy before the next instruction runs: the queue must leave
// the clock and the hierarchy exactly where that reference does.

// transparencySeeds is the fixed corpus: the seeds the test always runs
// and the fuzz target starts from.
const transparencySeeds = 40

var update = flag.Bool("update", false, "rewrite golden files with current output")

// countersGolden pins rio's modelled counters for every corpus seed under
// every mode, the full run and the budget-cut one: transparency compares
// guest state only, and the charges (dispatches, lookups, builds, samples,
// credit) reach TotalCycles and every harness golden.
const countersGolden = "testdata/counters.golden"

func TestDifferentialRandomPrograms(t *testing.T) {
	want := map[string]string{}
	if !*update {
		b, err := os.ReadFile(countersGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		for _, block := range strings.SplitAfter(string(b), "\n\n") {
			seed, _, _ := strings.Cut(block, " ")
			want[seed] = block
		}
	}
	var all strings.Builder
	for seed := int64(0); seed < transparencySeeds; seed++ {
		name := fmt.Sprintf("seed%d", seed)
		t.Run(name, func(t *testing.T) {
			var got strings.Builder
			checkTransparency(t, seed, func(mode string, rt *rio.Runtime) {
				fmt.Fprintf(&got, "%s %-15s overhead=%d credit=%d total=%d dispatches=%d indirect=%d samples=%d hits=%d traces=%d blocks=%d flushes=%d\n",
					name, mode, rt.Overhead, rt.Credit, rt.TotalCycles(), rt.Dispatches, rt.IndirectLks,
					rt.Samples, rt.SampleHits, rt.TracesBuilt, rt.BlocksBuilt, rt.BlockFlushes)
			})
			got.WriteString("\n")
			all.WriteString(got.String())
			if !*update && got.String() != want[name] {
				t.Errorf("modelled counters moved:\ngot\n%swant\n%s", got.String(), want[name])
			}
		})
	}
	if *update {
		if err := os.WriteFile(countersGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzRioTransparency(f *testing.F) {
	for seed := int64(0); seed < transparencySeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkTransparency(t, seed, nil) })
}

// genProgram builds a random but bounded program: a sequence of counted
// loops with random ALU/memory bodies (some with data-dependent forward
// branches and jump-table switches), helper calls, and an ending that
// halts, jumps out of the code image, or divides by zero. About a quarter
// of its loads and stores are non-temporal.
func genProgram(r *rand.Rand) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("diff%d", r.Int63()))
	e := b.Block("entry")
	e.AddI(isa.SP, isa.SP, -128)
	e.Mov(isa.BP, isa.SP)
	e.MovI(isa.R2, int64(program.HeapBase))
	var tables []jumpTable
	nLoops := 1 + r.Intn(4)
	for li := 0; li < nLoops; li++ {
		pre := b.Block(fmt.Sprintf("pre%d", li))
		pre.MovI(isa.R0, 0)
		trip := int64(50 + r.Intn(300))
		l := emitRandomBody(r, b, b.Block(fmt.Sprintf("loop%d", li)), &tables)
		l.AddI(isa.R0, isa.R0, 1)
		l.BrI(isa.CondLT, isa.R0, trip, fmt.Sprintf("loop%d", li))
	}
	done := b.Block("done")
	switch r.Intn(8) {
	case 0: // leave the image: below it, misaligned, into data, far above
		bad := []int64{0x10, int64(program.CodeBase) + 4, int64(program.HeapBase), 1 << 40}
		done.MovI(isa.R1, bad[r.Intn(len(bad))])
		done.JmpInd(isa.R1)
	case 1:
		done.MovI(isa.R12, 0)
		done.Div(isa.R3, isa.R3, isa.R12)
		done.Halt()
	default:
		done.Halt()
	}

	// Helper functions with stack traffic, targets of random calls.
	for h := 0; h < 3; h++ {
		f := b.Block(fmt.Sprintf("helper%d", h))
		f.AddI(isa.SP, isa.SP, -16)
		f.Store(isa.R7, 8, isa.Mem(isa.SP, 0))
		f.AddI(isa.R7, isa.R7, int64(h+1))
		f.Load(isa.R10, 8, isa.Mem(isa.SP, 0))
		f.AddI(isa.SP, isa.SP, 16)
		f.Ret()
	}
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	if len(tables) > 0 {
		// The switch tables hold code addresses, known once the layout is:
		// install them and assemble again (layout does not depend on data).
		for _, t := range tables {
			words := make([]uint64, len(t.cases))
			for k, c := range t.cases {
				words[k] = p.Symbols[c]
			}
			b.AddWords(t.addr, words)
		}
		if p, err = b.Assemble(); err != nil {
			panic(err)
		}
	}
	for i := range p.Instrs {
		if op := p.Instrs[i].Op; (op.IsLoad() || op.IsStore()) && r.Intn(4) == 0 {
			p.Instrs[i].NT = true
		}
	}
	return p
}

// jumpTable is one switch's table of case labels, installed at addr in
// the globals segment.
type jumpTable struct {
	addr  uint64
	cases []string
}

// emitRandomBody appends 3-10 random instructions to a loop body and
// returns the block the loop continues in. Memory addresses stay inside a
// 1 MiB heap window via masking. A forward branch or a switch starts a new
// block: the branch's target, or the switch's join.
func emitRandomBody(r *rand.Rand, b *program.Builder, blk *program.BlockBuilder, tables *[]jumpTable) *program.BlockBuilder {
	n := 3 + r.Intn(8)
	for i := 0; i < n; i++ {
		rd := isa.Reg(3 + r.Intn(9)) // r3..r11: avoid loop/base registers
		rs := isa.Reg(3 + r.Intn(9))
		switch r.Intn(13) {
		case 0:
			blk.Add(rd, rd, rs)
		case 1:
			blk.Sub(rd, rd, rs)
		case 2:
			blk.MulI(rd, rs, int64(r.Intn(7))+1)
		case 3:
			blk.Xor(rd, rd, rs)
		case 4:
			blk.MovI(rd, r.Int63n(1<<20))
		case 5: // masked heap load
			blk.AndI(isa.R12, rs, (1<<17)-1)
			blk.Load(rd, 8, isa.MemIdx(isa.R2, isa.R12, 8, 0))
		case 6: // masked heap store
			blk.AndI(isa.R12, rs, (1<<17)-1)
			blk.Store(rd, 8, isa.MemIdx(isa.R2, isa.R12, 8, 0))
		case 7: // stack spill/fill
			blk.Store(rd, 8, isa.Mem(isa.BP, int64(8*(r.Intn(8)))))
			blk.Load(rd, 8, isa.Mem(isa.BP, int64(8*(r.Intn(8)))))
		case 8: // unaligned access of any size, straddling pages at times
			size := uint8(1 << r.Intn(4))
			blk.AndI(isa.R12, rs, (1<<20)-1)
			if r.Intn(2) == 0 {
				blk.Load(rd, size, isa.MemIdx(isa.R2, isa.R12, 1, int64(r.Intn(8))))
			} else {
				blk.Store(rd, size, isa.MemIdx(isa.R2, isa.R12, 1, int64(r.Intn(8))))
			}
		case 9:
			blk.Call(fmt.Sprintf("helper%d", r.Intn(3)))
		case 10: // software prefetch, in or beyond the heap window
			blk.AndI(isa.R12, rs, (1<<18)-1)
			blk.Prefetch(isa.MemIdx(isa.R2, isa.R12, 8, 0))
		case 11: // data-dependent forward branch over a store and an update
			skip := fmt.Sprintf("%s_%d", blk.Label(), i)
			blk.Xor(isa.R12, rs, isa.R0)
			blk.AndI(isa.R12, isa.R12, int64(1<<r.Intn(3)))
			blk.BrI(isa.CondEQ, isa.R12, 0, skip)
			blk.Store(rd, 8, isa.Mem(isa.BP, int64(8*r.Intn(8))))
			blk.MulI(rd, rd, int64(r.Intn(5))+3)
			blk = b.Block(skip)
		case 12: // switch: a bounds check to the default case, then an
			// indirect jump through a jump table whose slot 0 is that case
			join := fmt.Sprintf("%s_%d", blk.Label(), i)
			t := jumpTable{addr: program.GlobalBase + 64*uint64(len(*tables))}
			ncase := 2 << r.Intn(2)
			for k := 0; k < ncase; k++ {
				t.cases = append(t.cases, fmt.Sprintf("%s_case%d", join, k))
			}
			blk.Xor(isa.R12, rs, isa.R0)
			blk.AndI(isa.R12, isa.R12, int64(2*ncase-1))
			blk.BrI(isa.CondGE, isa.R12, int64(ncase), t.cases[0])
			blk.MovI(isa.R1, int64(t.addr))
			blk.Load(isa.R12, 8, isa.MemIdx(isa.R1, isa.R12, 8, 0))
			blk.JmpInd(isa.R12)
			for k, c := range t.cases {
				b.Block(c).AddI(rd, rd, int64(k+1)).Jmp(join)
			}
			*tables = append(*tables, t)
			blk = b.Block(join)
		}
	}
	return blk
}

type ref struct {
	pc, addr uint64
	size     uint8
	write    bool
}

// outcome is everything one execution leaves behind that transparency
// covers.
type outcome struct {
	regs           [isa.NumRegs]uint64
	pc             uint64
	instrs, cycles uint64
	pages          int
	mem            uint64
	l1, l1i, l2    cache.LevelStats
	refs           []ref
	err            error
}

// memChecksum folds the heap window the programs touch, and the stack
// frame below the initial SP, into one value.
func memChecksum(m *vm.Machine) uint64 {
	var sum uint64
	fold := func(lo, hi uint64) {
		for a := lo; a < hi; a += 8 {
			sum = sum*1099511628211 + m.Mem.Read(a, 8)
		}
	}
	fold(program.HeapBase, program.HeapBase+1<<20+16)
	fold(program.StackBase-4096, program.StackBase)
	return sum
}

// newMachine builds the machine every arm runs on: the Pentium 4
// hierarchy as the model, with an instruction cache when icache is set
// (every instruction then queues a fetch), and a global RefHook recording
// the stream.
func newMachine(p *program.Program, icache bool) (*vm.Machine, *cache.Hierarchy, *[]ref) {
	h := harness.P4.Hierarchy(false)
	if icache {
		h.EnableICache(cache.P4L1I)
	}
	m := vm.New(p, h)
	refs := new([]ref)
	m.RefHook = func(pc, addr uint64, size uint8, write bool) {
		*refs = append(*refs, ref{pc, addr, size, write})
	}
	return m, h, refs
}

func settle(m *vm.Machine, h *cache.Hierarchy, refs []ref, err error) outcome {
	return outcome{regs: m.Regs, pc: m.PC, instrs: m.Instrs, cycles: m.Cycles,
		pages: m.Mem.PageCount(), mem: memChecksum(m), l1: h.L1Stats, l1i: h.L1IStats, l2: h.L2Stats,
		refs: refs, err: err}
}

func runNative(p *program.Program, icache bool, budget uint64) outcome {
	m, h, refs := newMachine(p, icache)
	err := m.Run(budget)
	return settle(m, h, *refs, err)
}

// runStep is the reference that never queues across instructions: each
// Step's Exec applies the hierarchy's work before it returns. It stops on
// the budget as Run does.
func runStep(p *program.Program, icache bool, budget uint64) outcome {
	m, h, refs := newMachine(p, icache)
	var err error
	for !m.Halted && err == nil {
		if m.Instrs >= budget {
			err = fmt.Errorf("%w (%d instructions)", vm.ErrNotHalted, budget)
			break
		}
		err = m.Step()
	}
	return settle(m, h, *refs, err)
}

// hookLog is one instrumentation hook's delivery record: the PC it sits
// at, and for each delivered reference the reference and its ordinal in
// the global stream (the machine's RefHook fires first, so the ordinal is
// the last recorded one).
type hookLog struct {
	pc   uint64
	got  []ref
	ords []int
}

func (l *hookLog) hook(refs *[]ref) rio.MemHook {
	return func(pc, addr uint64, size uint8, write bool) {
		l.got = append(l.got, ref{pc, addr, size, write})
		l.ords = append(l.ords, len(*refs)-1)
	}
}

// rioMode selects what the code cache does besides executing.
type rioMode struct {
	name     string
	blockCap int // block-cache capacity (0: unbounded)
	// sampled hooks a random subset of each new trace's references, skips
	// some entries unprofiled, and swaps each trace for its clean clone
	// after a random number of entries.
	sampled bool
	// covered pre-installs an instrumented fragment at every instruction
	// and instruments every new trace, one hook per PC: every reference
	// then executes profiled, so each hook's stream must be exactly the
	// native stream at its PC.
	covered bool
}

var rioModes = []rioMode{
	{name: "plain"},
	{name: "churn", blockCap: 24},
	{name: "sampled", sampled: true},
	{name: "covered", covered: true},
}

// perRefCost marks profiled references in Overhead: every other cost a
// bounded program accrues stays far below it.
const perRefCost = 1 << 32

func runRIO(p *program.Program, icache bool, budget uint64, mode rioMode, r *rand.Rand) (outcome, []*hookLog, *rio.Runtime) {
	m, h, refs := newMachine(p, icache)
	rt := rio.NewRuntime(m)
	rt.BlockCacheCap = mode.blockCap
	var logs []*hookLog
	if mode.sampled || mode.covered {
		// Odd period: sample points land mid-fragment and split runs.
		rt.SamplePeriod = 37
		rt.OnSample = func(*rio.Fragment) {}
	}
	if mode.sampled {
		rt.OnTrace = func(f *rio.Fragment) {
			hooks := make([]rio.MemHook, len(f.Instrs))
			for _, i := range f.MemOps() {
				if r.Intn(4) == 0 {
					continue // leave some references unhooked
				}
				l := &hookLog{pc: f.PCs[i]}
				logs = append(logs, l)
				hooks[i] = l.hook(refs)
			}
			clean := f.Clone()
			swapAfter := 1 + r.Intn(64)
			entries := 0
			f.Instr = &rio.Instrumentation{
				Prolog: func() bool {
					entries++
					if entries == swapAfter {
						rt.ReplaceTrace(clean) // the T -> T_c swap
						return false
					}
					return entries%5 != 0 // a burst skip now and then
				},
				Hooks:      hooks,
				PerRefCost: perRefCost,
				PrologCost: 3,
			}
		}
	}
	if mode.covered {
		perPC := make(map[uint64]rio.MemHook)
		instrument := func(f *rio.Fragment) {
			hooks := make([]rio.MemHook, len(f.Instrs))
			for _, i := range f.MemOps() {
				pc := f.PCs[i]
				if perPC[pc] == nil {
					l := &hookLog{pc: pc}
					logs = append(logs, l)
					perPC[pc] = l.hook(refs)
				}
				hooks[i] = perPC[pc]
			}
			f.Instr = &rio.Instrumentation{Prolog: func() bool { return true },
				Hooks: hooks, PerRefCost: perRefCost}
		}
		rt.OnTrace = instrument
		for i := range p.Instrs {
			end := i
			for end < len(p.Instrs)-1 && !p.Instrs[end].Op.IsBranch() {
				end++
			}
			f := &rio.Fragment{Start: p.PCOf(i), Instrs: append([]isa.Instr(nil), p.Instrs[i:end+1]...)}
			for k := range f.Instrs {
				f.PCs = append(f.PCs, p.PCOf(i+k))
			}
			instrument(f)
			rt.ReplaceTrace(f)
		}
	}
	err := rt.Run(budget)
	return settle(m, h, *refs, err), logs, rt
}

// checkTransparency runs one seed's program every way and compares; each
// rio run's finished runtime goes to counters, when non-nil, under its
// mode's name (budget-cut runs as name@cut).
func checkTransparency(t *testing.T, seed int64, counters func(mode string, rt *rio.Runtime)) {
	r := rand.New(rand.NewSource(seed))
	p := genProgram(r)
	icache := seed%2 != 0
	const budget = 10_000_000
	want := runNative(p, icache, budget)
	if want.err != nil && !errors.Is(want.err, vm.ErrBadPC) && !errors.Is(want.err, vm.ErrDivideByZero) {
		t.Fatalf("native: %v", want.err)
	}
	compareOutcomes(t, "step", want, runStep(p, icache, budget))
	for _, mode := range rioModes {
		got, logs, rt := runRIO(p, icache, budget, mode, r)
		if counters != nil {
			counters(mode.name, rt)
		}
		charged := rt.Overhead / perRefCost
		compareOutcomes(t, mode.name, want, got)
		// Each hook delivers native references at its PC, in order, each
		// as the machine's RefHook saw it; the covered mode delivers all
		// of them.
		var fired uint64
		for _, l := range logs {
			fired += uint64(len(l.got))
			for j, g := range l.got {
				k := l.ords[j]
				if g.pc != l.pc || k < 0 || k >= len(want.refs) || g != want.refs[k] ||
					j > 0 && k <= l.ords[j-1] {
					t.Fatalf("%s: hook at %#x delivered %+v as reference %d; native stream has %+v",
						mode.name, l.pc, g, k, want.refs[min(max(k, 0), len(want.refs)-1)])
				}
			}
		}
		if fired != charged {
			t.Errorf("%s: hooks fired %d times, rio charged %d profiled references", mode.name, fired, charged)
		}
		if mode.covered && fired != uint64(len(want.refs)) {
			t.Errorf("%s: hooks delivered %d references, native made %d", mode.name, fired, len(want.refs))
		}
	}

	// Budget exhaustion: plain interpretation stops on the budget, rio at
	// the first fragment boundary past it, each with its ErrNotHalted.
	if want.instrs < 2 {
		return
	}
	small := 1 + uint64(r.Int63n(int64(want.instrs-1)))
	cut := runNative(p, icache, small)
	if !errors.Is(cut.err, vm.ErrNotHalted) || cut.instrs != small {
		t.Fatalf("native at budget %d: %v after %d instrs", small, cut.err, cut.instrs)
	}
	compareOutcomes(t, fmt.Sprintf("step at budget %d", small), cut, runStep(p, icache, small))
	for _, mode := range rioModes {
		got, _, rt := runRIO(p, icache, small, mode, r)
		if counters != nil {
			counters(mode.name+"@cut", rt)
		}
		if !errors.Is(got.err, rio.ErrNotHalted) && !(got.instrs == want.instrs && sameErr(got.err, want.err)) {
			t.Fatalf("%s at budget %d: %v, want rio.ErrNotHalted", mode.name, small, got.err)
		}
		if got.instrs < small || !isPrefix(cut.refs, got.refs) || !isPrefix(got.refs, want.refs) {
			t.Fatalf("%s at budget %d: stopped after %d instrs with %d refs; native cut %d refs of %d",
				mode.name, small, got.instrs, len(got.refs), len(cut.refs), len(want.refs))
		}
	}
}

func compareOutcomes(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if !sameErr(got.err, want.err) {
		t.Fatalf("%s: error %v, native %v", name, got.err, want.err)
	}
	if got.regs != want.regs || got.pc != want.pc || got.instrs != want.instrs ||
		got.cycles != want.cycles || got.pages != want.pages || got.mem != want.mem {
		t.Fatalf("%s diverged:\nnative regs %v pc %#x instrs %d cycles %d pages %d mem %#x\nrio    regs %v pc %#x instrs %d cycles %d pages %d mem %#x",
			name, want.regs, want.pc, want.instrs, want.cycles, want.pages, want.mem,
			got.regs, got.pc, got.instrs, got.cycles, got.pages, got.mem)
	}
	if got.l1 != want.l1 || got.l1i != want.l1i || got.l2 != want.l2 {
		t.Fatalf("%s: hierarchy saw L1 %+v L1I %+v L2 %+v, native L1 %+v L1I %+v L2 %+v",
			name, got.l1, got.l1i, got.l2, want.l1, want.l1i, want.l2)
	}
	if len(got.refs) != len(want.refs) {
		t.Fatalf("%s: %d references, native %d", name, len(got.refs), len(want.refs))
	}
	for i := range want.refs {
		if got.refs[i] != want.refs[i] {
			t.Fatalf("%s: reference %d is %+v, native %+v", name, i, got.refs[i], want.refs[i])
		}
	}
}

// sameErr reports whether two run errors are the same outcome: both nil,
// or both the same fault or budget stop.
func sameErr(a, b error) bool {
	for _, target := range []error{vm.ErrBadPC, vm.ErrDivideByZero, vm.ErrNotHalted} {
		if errors.Is(a, target) || errors.Is(b, target) {
			return errors.Is(a, target) && errors.Is(b, target) && a.Error() == b.Error()
		}
	}
	return a == nil && b == nil
}

func isPrefix(a, b []ref) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
