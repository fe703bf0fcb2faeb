package rio

import (
	"errors"
	"fmt"

	"umi/internal/isa"
	"umi/internal/program"
	"umi/internal/tracelog"
	"umi/internal/vm"
)

// Costs is the runtime-system overhead model, in cycles. The defaults are
// tuned so that the substrate alone shows the behaviour Figure 2 reports
// for DynamoRIO: near-zero to ~15% slowdown for loop codes (occasionally a
// small speedup from trace layout), and larger slowdowns for
// control-intensive codes that keep leaving the trace cache.
type Costs struct {
	BlockBuild    uint64 // per new basic block fragment
	BlockPerInstr uint64 // per instruction copied into a block
	TraceBuild    uint64 // per new trace fragment
	TracePerInstr uint64 // per instruction inlined into a trace
	Dispatch      uint64 // per unlinked fragment transition
	IndirectLook  uint64 // per indirect-branch lookup
	SampleEvent   uint64 // per PC sample taken
	BlockFlush    uint64 // per block-cache flush (cache-full eviction)
	// TraceCreditShift: every (1<<shift) instructions executed from a
	// trace earn one cycle of layout credit, letting loopy programs run
	// slightly faster than native, as DynamoRIO does.
	TraceCreditShift uint
}

// DefaultCosts is the standard overhead model.
var DefaultCosts = Costs{
	BlockBuild:       80,
	BlockPerInstr:    10,
	TraceBuild:       160,
	TracePerInstr:    14,
	Dispatch:         45,
	IndirectLook:     18,
	SampleEvent:      180,
	BlockFlush:       2000,
	TraceCreditShift: 5, // ~3% credit on trace instructions
}

// HotThreshold is the default block execution count that promotes a trace
// head into a trace (DynamoRIO's default region-promotion threshold).
const HotThreshold = 52

// MaxTraceInstrs caps trace length.
const MaxTraceInstrs = 256

// SamplePeriod is the default PC-sampling period in retired instructions.
// It stands in for the paper's 10 ms timer on a 3 GHz machine scaled down
// to our workload sizes: frequent enough to catch hot traces, rare enough
// to cost little.
const SamplePeriod = 50_000

// ErrNotHalted mirrors vm.ErrNotHalted for runs under the code cache.
var ErrNotHalted = errors.New("rio: instruction budget exhausted before halt")

// TraceObserver is notified when a new trace is installed; UMI's region
// selector hangs off this callback.
type TraceObserver func(*Fragment)

// SampleObserver is notified at every PC sample with the fragment the
// sample landed in (nil when sampling hits non-trace code).
type SampleObserver func(*Fragment)

// Runtime executes a program through a basic-block cache and trace cache.
type Runtime struct {
	M    *vm.Machine
	Prog *program.Program
	Cost Costs

	HotThreshold uint64
	MaxTraceLen  int
	SamplePeriod uint64 // 0 disables sampling
	// BlockCacheCap bounds the basic-block cache in instructions; when a
	// build would exceed it the whole block cache is flushed and rebuilt
	// on demand, as DynamoRIO does when its cache fills. 0 = unbounded.
	BlockCacheCap int
	OnTrace       TraceObserver
	OnSample      SampleObserver
	// EventLog, when non-nil, receives the runtime's own lifecycle events
	// (trace promotions, block-cache flushes) stamped with the guest cycle
	// clock. Recording never feeds back into the overhead model, so runs
	// with and without a log are byte-identical.
	EventLog *tracelog.Log

	// The code cache is indexed by instruction: blocks[i] and traces[i]
	// hold the fragments headed at Prog.Instrs[i], and headCount[i]
	// counts executions of instruction i as a trace-head candidate. A
	// trace slot never empties once filled.
	blocks    []*Fragment
	traces    []*Fragment
	headCount []uint64
	// gen is the code-cache generation: every change that can move what a
	// PC resolves to (a trace installed by promotion or ReplaceTrace, a
	// block-cache flush) bumps it, and so invalidates every link's cached
	// target at once.
	gen uint64

	// Overhead accumulates runtime-system cycles; Credit accumulates
	// trace-layout savings.
	Overhead uint64
	Credit   uint64

	// statistics
	BlocksBuilt  int
	TracesBuilt  int
	BlockFlushes int
	Dispatches   uint64
	IndirectLks  uint64
	Samples      uint64
	// SampleHits counts samples that landed inside an installed trace —
	// the fraction of the sampler's clock ticks that actually reinforce
	// region selection.
	SampleHits   uint64
	blockInstrs  int
	traceInstrs  uint64
	nextSample   uint64
	nextFragID   int
	recording    bool
	recordHead   uint64
	recordInstrs []isa.Instr
	recordPCs    []uint64
	recordBlocks []uint64
}

// NewRuntime wraps a machine (already positioned at the program entry).
func NewRuntime(m *vm.Machine) *Runtime {
	n := len(m.Prog.Instrs)
	return &Runtime{
		M:            m,
		Prog:         m.Prog,
		Cost:         DefaultCosts,
		HotThreshold: HotThreshold,
		MaxTraceLen:  MaxTraceInstrs,
		SamplePeriod: 0,
		blocks:       make([]*Fragment, n),
		traces:       make([]*Fragment, n),
		headCount:    make([]uint64, n),
	}
}

// TotalCycles returns the modelled running time under the code cache:
// guest cycles plus runtime overhead minus trace-layout credit. It syncs
// the machine, so it is exact also during a run.
func (rt *Runtime) TotalCycles() uint64 {
	rt.M.Sync()
	t := rt.M.Cycles + rt.Overhead
	if rt.Credit >= t {
		return 0
	}
	return t - rt.Credit
}

// AddOverhead charges extra runtime-system cycles (used by the UMI layer
// for analyzer invocations).
func (rt *Runtime) AddOverhead(cycles uint64) { rt.Overhead += cycles }

// traceAt returns the installed trace starting at pc, nil if none.
func (rt *Runtime) traceAt(pc uint64) *Fragment {
	if i, ok := rt.Prog.IndexOf(pc); ok {
		return rt.traces[i]
	}
	return nil
}

// TraceAt returns the installed trace starting at pc, if any.
func (rt *Runtime) TraceAt(pc uint64) (*Fragment, bool) {
	f := rt.traceAt(pc)
	return f, f != nil
}

// ReplaceTrace installs frag as the trace for its start PC, dropping links
// out of the old fragment. This is the paper's T <-> T_c swap and the
// prefetcher's rewrite point. frag.Start must lie inside the code image.
func (rt *Runtime) ReplaceTrace(frag *Fragment) {
	i, ok := rt.Prog.IndexOf(frag.Start)
	if !ok {
		panic(fmt.Sprintf("rio: ReplaceTrace at %#x outside the code image", frag.Start))
	}
	if old := rt.traces[i]; old != nil {
		old.unlinkAll()
	}
	// Links into the replaced fragment stay established (linking is by
	// target PC); the new generation makes each resolve its target again.
	rt.traces[i] = frag
	rt.gen++
}

// Run executes until the program halts or maxInstrs guest instructions
// retire, checking the budget at fragment boundaries. Control reaching a
// PC outside the code image fails with an error wrapping vm.ErrBadPC, as
// it does under plain interpretation. On return M.PC is where execution
// stopped. Like vm.Machine.Run the run is one Drive: callbacks that read
// M.Cycles or the memory model must call M.Sync first.
func (rt *Runtime) Run(maxInstrs uint64) error {
	return rt.M.Drive(func() error { return rt.run(maxInstrs) })
}

func (rt *Runtime) run(maxInstrs uint64) error {
	pc := rt.M.PC
	defer func() { rt.M.PC = pc }()
	start := rt.M.Instrs
	if rt.SamplePeriod > 0 && rt.nextSample == 0 {
		rt.nextSample = rt.M.Instrs + rt.SamplePeriod
	}
	// prev is the fragment the last transition resolved to, prevIndirect
	// whether it left through an indirect branch, and l its link to pc
	// when it left through a linked direct exit.
	var prev *Fragment
	var prevIndirect bool
	var l *link
	for !rt.M.Halted {
		if rt.M.Instrs-start >= maxInstrs {
			return fmt.Errorf("%w (%d instructions)", ErrNotHalted, maxInstrs)
		}
		var frag *Fragment
		if l != nil && l.gen == rt.gen {
			// A linked exit whose target still resolves as cached: free,
			// and no lookup.
			frag = l.to
		} else {
			f, rebuilt, err := rt.lookup(pc)
			if err != nil {
				return err
			}
			// Transition cost: linked direct exits are free; indirect
			// exits pay the hash lookup; everything else pays a full
			// dispatch.
			l = nil
			if prev != nil && !prevIndirect {
				l = prev.linkTo(pc)
			}
			switch {
			case prev == nil || rebuilt:
				rt.Overhead += rt.Cost.Dispatch
				rt.Dispatches++
			case prevIndirect:
				rt.Overhead += rt.Cost.IndirectLook
				rt.IndirectLks++
			case l != nil:
				// free
			default:
				rt.Overhead += rt.Cost.Dispatch
				rt.Dispatches++
				l = prev.link(pc)
			}
			if l != nil {
				l.to, l.gen = f, rt.gen
			}
			frag = f
		}
		ran, exit, next, err := rt.execFragment(frag)
		pc = next
		if err != nil || rt.M.Halted {
			return err
		}
		prev, prevIndirect, l = frag, ran.Instrs[exit].Op.IsIndirect(), nil
		if !prevIndirect {
			l = frag.linkTo(pc)
		}
		// Exit bookkeeping counts trace heads and feeds a recording. A
		// head count is read only while its PC holds no trace, so a
		// linked exit into a trace skips it unless a recording is open.
		if rt.recording || l == nil || l.gen != rt.gen || !l.to.IsTrace {
			rt.observeExit(ran, ran.PCs[exit], pc)
		}
	}
	return nil
}

// lookup finds or builds the fragment for pc. rebuilt reports that a build
// occurred (forcing a dispatch charge).
func (rt *Runtime) lookup(pc uint64) (*Fragment, bool, error) {
	i, ok := rt.Prog.IndexOf(pc)
	if !ok {
		return nil, false, fmt.Errorf("%w: %#x", vm.ErrBadPC, pc)
	}
	if f := rt.traces[i]; f != nil {
		return f, false, nil
	}
	if f := rt.blocks[i]; f != nil {
		return f, false, nil
	}
	return rt.buildBlock(i), true, nil
}

// buildBlock discovers the dynamic basic block headed at instruction i:
// instructions up to and including the first branch, or to the end of
// the image (execution then falls off it, and the next lookup faults).
func (rt *Runtime) buildBlock(i int) *Fragment {
	code := rt.Prog.Instrs
	end := i
	for end < len(code) && !code[end].Op.IsBranch() {
		end++
	}
	if end < len(code) {
		end++
	}
	f := &Fragment{ID: rt.nextFragID, Start: rt.Prog.PCOf(i),
		Instrs: append([]isa.Instr(nil), code[i:end]...), PCs: make([]uint64, end-i)}
	for k := range f.PCs {
		f.PCs[k] = rt.Prog.PCOf(i + k)
	}
	rt.nextFragID++
	if rt.BlockCacheCap > 0 && rt.blockInstrs+len(f.Instrs) > rt.BlockCacheCap {
		// Cache full: flush everything and start over (DynamoRIO's
		// all-at-once eviction). Links into flushed blocks stay
		// established (linking is by target PC); the new generation makes
		// each resolve its target again.
		rt.emit(tracelog.Event{Type: tracelog.EvBlockCacheFlush, Arg1: uint64(rt.blockInstrs)})
		clear(rt.blocks)
		rt.gen++
		rt.blockInstrs = 0
		rt.BlockFlushes++
		rt.Overhead += rt.Cost.BlockFlush
	}
	rt.blocks[i] = f
	rt.blockInstrs += len(f.Instrs)
	rt.BlocksBuilt++
	rt.Overhead += rt.Cost.BlockBuild + rt.Cost.BlockPerInstr*uint64(len(f.Instrs))
	return f
}

// execFragment runs the fragment to one of its exits, or, when its prolog
// declines the entry and f no longer owns its PC, the fragment that does.
// It returns the fragment that ran, the index of the last instruction that
// retired in it (the exit, when the run neither halted nor faulted), and
// the next application PC (the faulting PC on error).
func (rt *Runtime) execFragment(f *Fragment) (*Fragment, int, uint64, error) {
	f.ExecCount++
	m := rt.M
	var hooks []MemHook
	var perRef uint64
	if f.Instr != nil {
		rt.Overhead += f.Instr.PrologCost
		if f.Instr.Prolog() {
			hooks, perRef = f.Instr.Hooks, f.Instr.PerRefCost
		} else if nf, _, _ := rt.lookup(f.Start); nf != f {
			// The prolog declined this execution and asked to be replaced
			// (analysis finished): re-dispatch to whatever now owns the
			// PC. A declined entry that leaves the fragment in place (a
			// burst-sampling skip) runs without its reference hooks,
			// paying only the prolog conditional already charged above.
			return rt.execFragment(nf)
		}
	}

	start := m.Instrs
	var next uint64
	var err error
	i := 0
	for {
		stop := uint64(vm.NoStop)
		if rt.SamplePeriod > 0 {
			stop = rt.nextSample
		}
		var runHooks []MemHook
		if hooks != nil {
			runHooks = hooks[i:]
		}
		var n int
		n, next, err = m.Exec(f.Instrs[i:], f.PCs[i:], 0, runHooks, stop)
		if runHooks != nil {
			for _, h := range runHooks[:n] {
				if h != nil {
					rt.Overhead += perRef
				}
			}
		}
		i += n
		if err != nil {
			break
		}
		if rt.SamplePeriod > 0 && m.Instrs >= rt.nextSample {
			rt.sample(f)
		}
		// A run cut at a sample point resumes in place, and an untaken or
		// fall-through branch stays inside the fragment (runtime-injected
		// instructions may share their neighbour's application PC, so PC
		// comparison is reserved for branches). Anything else leaves.
		if m.Halted || i == len(f.Instrs) || f.Instrs[i-1].Op.IsBranch() && next != f.PCs[i] {
			break
		}
	}
	if f.IsTrace {
		// Every (1<<shift)-th trace instruction earns a cycle of layout
		// credit; counting the multiples this entry's instructions cross
		// charges exactly what a per-instruction count would.
		t := rt.traceInstrs
		rt.traceInstrs += m.Instrs - start
		shift := rt.Cost.TraceCreditShift
		rt.Credit += rt.traceInstrs>>shift - t>>shift
	}
	return f, i - 1, next, err
}

// sample takes one PC sample inside f.
func (rt *Runtime) sample(f *Fragment) {
	rt.nextSample = rt.M.Instrs + rt.SamplePeriod
	rt.Samples++
	if f.IsTrace {
		rt.SampleHits++
	}
	rt.Overhead += rt.Cost.SampleEvent
	if rt.OnSample != nil {
		if f.IsTrace {
			rt.OnSample(f)
		} else {
			rt.OnSample(nil)
		}
	}
}

// observeExit feeds the trace builder at a fragment exit (or, for a block
// that runs off the end of the image, a fall-through the next lookup
// faults on): backward branches identify trace heads; hot heads trigger
// trace recording; recording appends the blocks executed next until a
// stop condition.
func (rt *Runtime) observeExit(f *Fragment, branchPC, target uint64) {
	if rt.recording {
		rt.appendToRecording(f)
		stop := false
		switch {
		case target == rt.recordHead: // loop closed
			stop = true
		case len(rt.recordInstrs) >= rt.MaxTraceLen:
			stop = true
		case rt.traceAt(target) != nil: // reached another trace
			stop = true
		case len(f.Instrs) > 0 && f.Instrs[len(f.Instrs)-1].Op.IsIndirect():
			stop = true // indirect branches end traces
		}
		if stop {
			rt.finishRecording()
		}
		return
	}
	// Trace-head candidates, as in NET: targets of taken backward
	// branches, and exits of existing traces (side paths of a hot loop
	// get promoted too — without this, a conditional body inside a hot
	// loop would never be profiled).
	i, ok := rt.Prog.IndexOf(target)
	if ok && (target <= branchPC || f.IsTrace) {
		rt.headCount[i]++
		if rt.headCount[i] >= rt.HotThreshold && rt.traces[i] == nil {
			rt.recording = true
			rt.recordHead = target
			rt.recordInstrs = nil
			rt.recordPCs = nil
			rt.recordBlocks = nil
		}
	}
}

func (rt *Runtime) appendToRecording(f *Fragment) {
	if len(rt.recordBlocks) == 0 && f.Start != rt.recordHead {
		// The first recorded block must be the head; we are called at
		// the exit of the block that *branched to* the head, so skip
		// until the head block itself executes.
		return
	}
	rt.recordBlocks = append(rt.recordBlocks, f.Start)
	rt.recordInstrs = append(rt.recordInstrs, f.Instrs...)
	rt.recordPCs = append(rt.recordPCs, f.PCs...)
}

func (rt *Runtime) finishRecording() {
	rt.recording = false
	if len(rt.recordInstrs) == 0 {
		return
	}
	f := &Fragment{
		ID:      rt.nextFragID,
		Start:   rt.recordHead,
		Instrs:  rt.recordInstrs,
		PCs:     rt.recordPCs,
		IsTrace: true,
		blocks:  rt.recordBlocks,
	}
	rt.nextFragID++
	rt.recordInstrs, rt.recordPCs, rt.recordBlocks = nil, nil, nil
	i, _ := rt.Prog.IndexOf(f.Start)
	rt.traces[i] = f
	rt.gen++
	rt.TracesBuilt++
	rt.Overhead += rt.Cost.TraceBuild + rt.Cost.TracePerInstr*uint64(len(f.Instrs))
	rt.emit(tracelog.Event{Type: tracelog.EvTracePromoted, TracePC: f.Start, Arg1: uint64(len(f.Instrs))})
	if rt.OnTrace != nil {
		rt.OnTrace(f)
	}
}

// emit records ev in EventLog stamped with the guest clock. Without a log
// it neither syncs the machine nor reads the clock.
func (rt *Runtime) emit(ev tracelog.Event) {
	if rt.EventLog == nil {
		return
	}
	rt.M.Sync()
	ev.Cycles = rt.M.Cycles
	rt.EventLog.Emit(ev)
}

// RuntimeCounters is a copy of the runtime's event counters, taken at a
// point where the caller owns the runtime (rio is single-threaded).
type RuntimeCounters struct {
	BlocksBuilt     int
	TracesBuilt     int
	BlockFlushes    int
	Dispatches      uint64
	IndirectLookups uint64
	Samples         uint64
	SampleHits      uint64
}

// Counters snapshots the runtime's event counters.
func (rt *Runtime) Counters() RuntimeCounters {
	return RuntimeCounters{
		BlocksBuilt:     rt.BlocksBuilt,
		TracesBuilt:     rt.TracesBuilt,
		BlockFlushes:    rt.BlockFlushes,
		Dispatches:      rt.Dispatches,
		IndirectLookups: rt.IndirectLks,
		Samples:         rt.Samples,
		SampleHits:      rt.SampleHits,
	}
}
