package vm

import (
	"errors"
	"fmt"
	"math"

	"umi/internal/isa"
	"umi/internal/program"
)

// MemModel supplies memory-hierarchy latency for the machine's loads and
// stores. Access reports the stall cycles beyond the instruction's base
// cost. The model is the "hardware": a cache hierarchy with performance
// counters implements this interface. The machine calls it, and its
// optional views below, through the reference queue (queue.go): in program
// order, but during a run on a worker goroutine and after the instruction
// has retired.
type MemModel interface {
	Access(addr uint64, size uint8, write bool) (stall uint64)
}

// PrefetchModel is implemented by memory models that accept software
// prefetch hints.
type PrefetchModel interface {
	Prefetch(addr uint64)
}

// NTModel is implemented by memory models that honour non-temporal
// access hints (isa.Instr.NT): the line should not be cached beyond the
// first level.
type NTModel interface {
	AccessNT(addr uint64, size uint8, write bool) (stall uint64)
}

// InstrFetchModel is implemented by memory models that charge for
// instruction fetches (an instruction cache). The machine queues one
// fetch per executed instruction when attached — unless the model also has
// a FetchesInstrs() bool method reporting false when the machine is built
// or reset (a hierarchy with no instruction cache, where every fetch is
// free).
type InstrFetchModel interface {
	FetchInstr(pc uint64) (stall uint64)
}

// RefHook observes one dynamic memory reference: the instruction's PC, the
// effective address, the access size, and whether it is a write. Prefetch
// instructions do not invoke the hook (they are hints, not references).
type RefHook func(pc, addr uint64, size uint8, write bool)

// Execution errors.
var (
	ErrDivideByZero = errors.New("vm: divide by zero")
	ErrBadPC        = errors.New("vm: pc outside code image")
	ErrNotHalted    = errors.New("vm: instruction budget exhausted before halt")
)

// Machine is one guest hardware context.
type Machine struct {
	Prog *program.Program
	Regs [isa.NumRegs]uint64
	PC   uint64
	Mem  *Memory

	// Model provides load/store stall cycles. Nil means a perfect
	// single-cycle memory. Its optional views are latched by Reset (and
	// so by New): call Reset after replacing it.
	Model MemModel

	// fetch is Model's instruction-fetch view, latched at Reset time (nil
	// when the model charges nothing for fetches) to avoid a type
	// assertion per instruction.
	fetch InstrFetchModel
	// nt and pf are Model's non-temporal and prefetch views, if any.
	nt NTModel
	pf PrefetchModel
	// q queues Model's work for apply (queue.go).
	q refQueue

	// RefHook, when non-nil, observes every load and store.
	RefHook RefHook

	// Cycles is the modelled execution time; Instrs counts retired guest
	// instructions (both exclude any runtime-system overhead, which the
	// rio layer accounts separately). During a run Cycles lacks the stalls
	// of references still queued: call Sync before reading it.
	Cycles uint64
	Instrs uint64
	Halted bool
}

// NoStop is the Exec stop count that never ends a run early.
const NoStop = math.MaxUint64

// New creates a machine for the program with data segments installed,
// SP/BP initialized, and PC at the entry point.
func New(p *program.Program, model MemModel) *Machine {
	m := &Machine{Prog: p, Model: model}
	m.Reset()
	return m
}

// Reset rewinds the machine to the program's initial state, reinstalling
// data segments into a fresh memory and re-reading the model's optional
// views. References still queued (from an Exec a hook panicked out of)
// reach the model first.
func (m *Machine) Reset() {
	m.Sync()
	m.fetch, m.nt, m.pf = nil, nil, nil
	if f, ok := m.Model.(InstrFetchModel); ok {
		if g, ok := f.(interface{ FetchesInstrs() bool }); !ok || g.FetchesInstrs() {
			m.fetch = f
		}
	}
	m.nt, _ = m.Model.(NTModel)
	m.pf, _ = m.Model.(PrefetchModel)
	if m.q.cur == nil {
		m.q.cur = new(batch)
	}
	m.Mem = NewMemory()
	for _, seg := range m.Prog.Data {
		m.Mem.WriteBytes(seg.Addr, seg.Bytes)
	}
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.Regs[isa.SP] = program.StackBase
	m.Regs[isa.BP] = program.StackBase
	m.PC = m.Prog.Entry
	m.Cycles = 0
	m.Instrs = 0
	m.Halted = false
}

// EA computes the effective address of a memory operand in the current
// register state.
func (m *Machine) EA(ref isa.MemRef) uint64 {
	var ea uint64
	if ref.Base != isa.NoReg {
		ea = m.Regs[ref.Base]
	}
	if ref.Index != isa.NoReg {
		ea += m.Regs[ref.Index] * uint64(ref.Scale)
	}
	return ea + uint64(ref.Disp)
}

// Exec is the interpreter: it executes code in order, updating
// registers, memory and the cycle and instruction counters, until control
// leaves the straight line, an instruction faults, m.Instrs reaches stop,
// or code runs out. Instruction i stands at application PC pcs[i] or,
// when pcs is nil, at pc + i*isa.InstrBytes. Control leaves the straight
// line at a halt and at a branch whose next PC is not the next slot's PC;
// a fall-through, or a taken branch whose target a trace inlined next,
// runs on. Exec returns how many instructions retired and the PC
// execution continues at — the faulting instruction's own PC on error. It
// does not touch m.PC: callers (Step, Run, and the rio dispatcher, which
// executes instructions out of code-cache fragments) manage control flow
// themselves.
//
// Exec charges base costs to m.Cycles and queues the model's work (see
// Sync); outside a run it applies the queue before returning, so Cycles
// is then exact.
//
// hooks, when non-nil, is aligned with code: a non-nil hooks[i] observes
// instruction i's reference after RefHook does. Hooks run with m.Instrs
// and the base costs in m.Cycles brought up to the previous instruction.
func (m *Machine) Exec(code []isa.Instr, pcs []uint64, pc uint64, hooks []RefHook, stop uint64) (int, uint64, error) {
	var cycles uint64 // base cost not yet added to m.Cycles
	instrs := m.Instrs
	// Records are queued inline (a call per reference costs more than the
	// store): flush the full batch, then append. The mask only spares the
	// bounds check.
	q := &m.q
	for i := range code {
		in := &code[i]
		if pcs != nil {
			pc = pcs[i]
		}
		next := pc + isa.InstrBytes
		if m.fetch != nil {
			if q.n == batchLen {
				m.flush()
			}
			q.cur.recs[q.n&(batchLen-1)] = ref{pc, 0, refFetch}
			q.n++
		}
		branch := false
		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			m.Halted = true
			m.retire(cycles+in.BaseCost(), instrs+1)
			return i + 1, next, nil
		case isa.OpAdd:
			m.Regs[in.Rd] = m.Regs[in.Rs1] + m.Regs[in.Rs2]
		case isa.OpSub:
			m.Regs[in.Rd] = m.Regs[in.Rs1] - m.Regs[in.Rs2]
		case isa.OpMul:
			m.Regs[in.Rd] = m.Regs[in.Rs1] * m.Regs[in.Rs2]
		case isa.OpDiv:
			if m.Regs[in.Rs2] == 0 {
				m.fault(cycles, instrs)
				return i, pc, fmt.Errorf("%w at pc %#x", ErrDivideByZero, pc)
			}
			m.Regs[in.Rd] = uint64(int64(m.Regs[in.Rs1]) / int64(m.Regs[in.Rs2]))
		case isa.OpAnd:
			m.Regs[in.Rd] = m.Regs[in.Rs1] & m.Regs[in.Rs2]
		case isa.OpOr:
			m.Regs[in.Rd] = m.Regs[in.Rs1] | m.Regs[in.Rs2]
		case isa.OpXor:
			m.Regs[in.Rd] = m.Regs[in.Rs1] ^ m.Regs[in.Rs2]
		case isa.OpShl:
			m.Regs[in.Rd] = m.Regs[in.Rs1] << (m.Regs[in.Rs2] & 63)
		case isa.OpShr:
			m.Regs[in.Rd] = m.Regs[in.Rs1] >> (m.Regs[in.Rs2] & 63)
		case isa.OpAddI:
			m.Regs[in.Rd] = m.Regs[in.Rs1] + uint64(in.Imm)
		case isa.OpMulI:
			m.Regs[in.Rd] = m.Regs[in.Rs1] * uint64(in.Imm)
		case isa.OpAndI:
			m.Regs[in.Rd] = m.Regs[in.Rs1] & uint64(in.Imm)
		case isa.OpShrI:
			m.Regs[in.Rd] = m.Regs[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.OpMov:
			m.Regs[in.Rd] = m.Regs[in.Rs1]
		case isa.OpMovI:
			m.Regs[in.Rd] = uint64(in.Imm)
		case isa.OpLoad:
			ea := m.EA(in.Mem)
			if m.RefHook != nil || hooks != nil && hooks[i] != nil {
				m.Cycles, m.Instrs, cycles = m.Cycles+cycles, instrs, 0
				m.observe(hooks, i, pc, ea, in.Size, false)
			}
			if m.Model != nil {
				kind := refLoad
				if in.NT && m.nt != nil {
					kind = refLoadNT
				}
				if q.n == batchLen {
					m.flush()
				}
				q.cur.recs[q.n&(batchLen-1)] = ref{ea, in.Size, kind}
				q.n++
			}
			m.Regs[in.Rd] = m.Mem.Read(ea, in.Size)
		case isa.OpStore:
			ea := m.EA(in.Mem)
			if m.RefHook != nil || hooks != nil && hooks[i] != nil {
				m.Cycles, m.Instrs, cycles = m.Cycles+cycles, instrs, 0
				m.observe(hooks, i, pc, ea, in.Size, true)
			}
			if m.Model != nil {
				kind := refStore
				if in.NT && m.nt != nil {
					kind = refStoreNT
				}
				if q.n == batchLen {
					m.flush()
				}
				q.cur.recs[q.n&(batchLen-1)] = ref{ea, in.Size, kind}
				q.n++
			}
			m.Mem.Write(ea, in.Size, m.Regs[in.Rs1])
		case isa.OpPrefetch:
			if m.pf != nil {
				if q.n == batchLen {
					m.flush()
				}
				q.cur.recs[q.n&(batchLen-1)] = ref{m.EA(in.Mem), 0, refPrefetch}
				q.n++
			}
		case isa.OpJmp:
			next = uint64(in.Imm)
			branch = true
		case isa.OpBr:
			if in.Cond.Eval(m.Regs[in.Rs1], m.Regs[in.Rs2]) {
				next = uint64(in.Imm)
			}
			branch = true
		case isa.OpBrI:
			if in.Cond.Eval(m.Regs[in.Rs1], uint64(in.Imm2)) {
				next = uint64(in.Imm)
			}
			branch = true
		case isa.OpCall:
			m.Regs[isa.LR] = next
			next = uint64(in.Imm)
			branch = true
		case isa.OpRet:
			next = m.Regs[isa.LR]
			branch = true
		case isa.OpJmpInd:
			next = m.Regs[in.Rs1]
			branch = true
		default:
			m.fault(cycles, instrs)
			return i, pc, fmt.Errorf("vm: unimplemented opcode %v at pc %#x", in.Op, pc)
		}
		cycles += in.BaseCost()
		instrs++
		if branch && i+1 < len(code) {
			// A branch that continues at the next slot stays on the
			// straight line (runtime-injected instructions may share their
			// neighbour's application PC, so only branches compare PCs).
			follow := pc + isa.InstrBytes
			if pcs != nil {
				follow = pcs[i+1]
			}
			branch = next != follow
		}
		if branch || instrs >= stop {
			m.retire(cycles, instrs)
			return i + 1, next, nil
		}
		pc = next
	}
	m.retire(cycles, instrs)
	return len(code), pc, nil
}

// observe delivers one reference to RefHook and to the instruction's own
// hook.
func (m *Machine) observe(hooks []RefHook, i int, pc, ea uint64, size uint8, write bool) {
	if m.RefHook != nil {
		m.RefHook(pc, ea, size, write)
	}
	if hooks != nil && hooks[i] != nil {
		hooks[i](pc, ea, size, write)
	}
}

// retire brings the counters up to date as Exec returns and, outside a
// run, applies the queue.
func (m *Machine) retire(cycles, instrs uint64) {
	m.Cycles += cycles
	m.Instrs = instrs
	if !m.q.running {
		m.Sync()
	}
}

// fault retires what ran before a faulting instruction. The instruction
// costs nothing, but its fetch, the last record queued, still reaches
// the model.
func (m *Machine) fault(cycles, instrs uint64) {
	if m.fetch != nil {
		m.q.cur.recs[m.q.n-1].kind = refFetchFaulted
	}
	m.retire(cycles, instrs)
}

// ExecInstr executes one instruction whose original application PC is pc
// and returns the next PC (pc itself on error). Like Exec, it does not
// touch m.PC.
func (m *Machine) ExecInstr(in *isa.Instr, pc uint64) (uint64, error) {
	code := [1]isa.Instr{*in}
	_, next, err := m.Exec(code[:], nil, pc, nil, NoStop)
	return next, err
}

// Step fetches and executes the instruction at the current PC.
func (m *Machine) Step() error {
	i, ok := m.Prog.IndexOf(m.PC)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadPC, m.PC)
	}
	_, next, err := m.Exec(m.Prog.Instrs[i:i+1], nil, m.PC, nil, NoStop)
	m.PC = next
	return err
}

// Run executes until the program halts or maxInstrs instructions retire.
// It returns ErrNotHalted if the budget is exhausted first. The run is one
// Drive: the model works beside the interpreter, and Cycles and the model
// are exact when Run returns.
func (m *Machine) Run(maxInstrs uint64) error {
	return m.Drive(func() error { return m.run(maxInstrs) })
}

func (m *Machine) run(maxInstrs uint64) error {
	stop := m.Instrs + maxInstrs
	if stop < m.Instrs {
		stop = NoStop
	}
	for !m.Halted {
		if m.Instrs >= stop {
			return fmt.Errorf("%w (%d instructions)", ErrNotHalted, maxInstrs)
		}
		i, ok := m.Prog.IndexOf(m.PC)
		if !ok {
			return fmt.Errorf("%w: %#x", ErrBadPC, m.PC)
		}
		_, next, err := m.Exec(m.Prog.Instrs[i:], nil, m.PC, nil, stop)
		m.PC = next
		if err != nil {
			return err
		}
	}
	return nil
}

// FixedLatency is a trivial MemModel charging the same stall for every
// access; useful for tests and as a memory-only baseline.
type FixedLatency uint64

// Access implements MemModel.
func (f FixedLatency) Access(addr uint64, size uint8, write bool) uint64 { return uint64(f) }
