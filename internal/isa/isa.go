// Package isa defines the guest instruction set architecture executed by the
// reproduction's virtual machine.
//
// The paper instruments IA-32 binaries under DynamoRIO. A Go reproduction
// cannot rewrite native x86 at runtime, so the entire stack — the program
// under test, the DynamoRIO-like runtime, and the "hardware" the counters
// observe — runs on this small load/store ISA instead. The ISA keeps the two
// properties UMI's heuristics depend on:
//
//   - memory operands carry a base register, so the instrumentor can filter
//     stack-relative references (base SP or BP) and static references
//     (absolute displacement, no base), mirroring the paper's esp/ebp rule;
//   - every instruction has a unique PC, so profiles are keyed by
//     (pc, address) tuples exactly as in the paper.
//
// Instructions use a fixed 16-byte binary encoding (see encoding.go) so that
// code can be stored in, copied between, and patched inside code caches the
// way a binary rewriter would.
package isa

import "fmt"

// Reg names a general-purpose register. The guest machine has 16.
type Reg uint8

// Register conventions. SP and BP matter to UMI's operation filter: memory
// references based on them are assumed stack-local and are not profiled.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // stack pointer (x86 esp analogue)
	BP // frame base pointer (x86 ebp analogue)
	LR // link register, written by CALL
)

// NumRegs is the size of the architectural register file.
const NumRegs = 16

// NoReg marks an absent register operand in a MemRef.
const NoReg Reg = 0xFF

func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case BP:
		return "bp"
	case LR:
		return "lr"
	case NoReg:
		return "-"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an opcode.
type Op uint8

// Opcodes. The set is intentionally small: enough arithmetic to express
// loop kernels, full load/store addressing, and the control flow shapes
// (direct, conditional, indirect, call/return) a trace builder must handle.
const (
	OpNop Op = iota
	OpHalt
	// ALU, register-register: Rd = Rs1 op Rs2.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// ALU, register-immediate: Rd = Rs1 op Imm.
	OpAddI
	OpMulI
	OpAndI
	OpShrI
	// Data movement.
	OpMov  // Rd = Rs1
	OpMovI // Rd = Imm
	// Memory. Size in bytes is Instr.Size (1, 2, 4 or 8).
	OpLoad     // Rd = mem[ea]
	OpStore    // mem[ea] = Rs1
	OpPrefetch // hint: fetch line containing ea into the cache
	// Control flow. Branch targets are absolute instruction addresses.
	OpJmp    // pc = Imm
	OpBr     // if Rs1 <cond> Rs2 then pc = Imm
	OpBrI    // if Rs1 <cond> Imm2 then pc = Imm
	OpCall   // LR = next pc; pc = Imm
	OpRet    // pc = LR
	OpJmpInd // pc = Rs1 (indirect jump, e.g. switch tables)

	numOps
)

var opNames = [...]string{
	OpNop:      "nop",
	OpHalt:     "halt",
	OpAdd:      "add",
	OpSub:      "sub",
	OpMul:      "mul",
	OpDiv:      "div",
	OpAnd:      "and",
	OpOr:       "or",
	OpXor:      "xor",
	OpShl:      "shl",
	OpShr:      "shr",
	OpAddI:     "addi",
	OpMulI:     "muli",
	OpAndI:     "andi",
	OpShrI:     "shri",
	OpMov:      "mov",
	OpMovI:     "movi",
	OpLoad:     "load",
	OpStore:    "store",
	OpPrefetch: "prefetch",
	OpJmp:      "jmp",
	OpBr:       "br",
	OpBrI:      "bri",
	OpCall:     "call",
	OpRet:      "ret",
	OpJmpInd:   "jmpind",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// IsMemory reports whether op computes an effective address and touches the
// memory hierarchy (prefetches touch the hierarchy but not program state).
func (op Op) IsMemory() bool { return op == OpLoad || op == OpStore || op == OpPrefetch }

// IsLoad reports whether op reads program-visible memory.
func (op Op) IsLoad() bool { return op == OpLoad }

// IsStore reports whether op writes program-visible memory.
func (op Op) IsStore() bool { return op == OpStore }

// IsBranch reports whether op may change the program counter.
func (op Op) IsBranch() bool {
	switch op {
	case OpJmp, OpBr, OpBrI, OpCall, OpRet, OpJmpInd, OpHalt:
		return true
	}
	return false
}

// IsConditional reports whether op is a conditional branch: it may either
// take its target or fall through.
func (op Op) IsConditional() bool { return op == OpBr || op == OpBrI }

// IsIndirect reports whether the branch target is computed at run time.
func (op Op) IsIndirect() bool { return op == OpRet || op == OpJmpInd }

// Cond is a branch condition comparing two operands as signed integers
// (unsigned variants exist for address comparisons).
type Cond uint8

// Branch conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondGE
	CondGT
	CondLE
	CondLTU // unsigned <
	CondGEU // unsigned >=

	numConds
)

var condNames = [...]string{
	CondEQ:  "eq",
	CondNE:  "ne",
	CondLT:  "lt",
	CondGE:  "ge",
	CondGT:  "gt",
	CondLE:  "le",
	CondLTU: "ltu",
	CondGEU: "geu",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Valid reports whether c is a defined condition.
func (c Cond) Valid() bool { return c < numConds }

// Eval applies the condition to two operand values.
func (c Cond) Eval(a, b uint64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return int64(a) < int64(b)
	case CondGE:
		return int64(a) >= int64(b)
	case CondGT:
		return int64(a) > int64(b)
	case CondLE:
		return int64(a) <= int64(b)
	case CondLTU:
		return a < b
	case CondGEU:
		return a >= b
	}
	return false
}

// MemRef describes a memory operand: effective address =
// Base + Index*Scale + Disp. Base and Index may be NoReg. A reference with
// no base and no index is a static (absolute) reference.
type MemRef struct {
	Base  Reg
	Index Reg
	Scale uint8 // 1, 2, 4 or 8; meaningful only when Index != NoReg
	Disp  int64
}

// NoMem is the zero-value memory operand used by non-memory instructions.
var NoMem = MemRef{Base: NoReg, Index: NoReg}

// IsStatic reports whether the reference has a compile-time constant
// address (no base, no index). The paper's instrumentor skips these.
func (m MemRef) IsStatic() bool { return m.Base == NoReg && m.Index == NoReg }

// IsStackRelative reports whether the reference is based on the stack or
// frame pointer. The paper's instrumentor skips these too.
func (m MemRef) IsStackRelative() bool { return m.Base == SP || m.Base == BP }

func (m MemRef) String() string {
	s := "["
	switch {
	case m.Base != NoReg && m.Index != NoReg:
		s += fmt.Sprintf("%v+%v*%d", m.Base, m.Index, m.Scale)
	case m.Base != NoReg:
		s += m.Base.String()
	case m.Index != NoReg:
		s += fmt.Sprintf("%v*%d", m.Index, m.Scale)
	}
	if m.Disp != 0 || (m.Base == NoReg && m.Index == NoReg) {
		s += fmt.Sprintf("%+d", m.Disp)
	}
	return s + "]"
}

// Instr is one decoded guest instruction.
//
// Field use by opcode class:
//
//	ALU reg-reg:  Rd, Rs1, Rs2
//	ALU reg-imm:  Rd, Rs1, Imm
//	OpMov:        Rd, Rs1        OpMovI: Rd, Imm
//	OpLoad:       Rd, Mem, Size  OpStore: Rs1, Mem, Size
//	OpPrefetch:   Mem
//	OpJmp/OpCall: Imm (target)   OpBr: Cond, Rs1, Rs2, Imm (target)
//	OpBrI:        Cond, Rs1, Imm2 (compare value), Imm (target)
//	OpJmpInd:     Rs1
type Instr struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Cond Cond
	Size uint8 // access size in bytes for memory ops
	// NT marks a load/store as non-temporal: the memory hierarchy should
	// not cache the line beyond the first level (an x86 MOVNT-style
	// hint). Runtime optimizers set it on streaming delinquent loads to
	// stop them polluting the L2.
	NT   bool
	Mem  MemRef
	Imm  int64 // immediate operand / branch target
	Imm2 int64 // second immediate (OpBrI compare value)
}

// Target returns the static branch target of a direct branch, and whether
// the instruction has one.
func (in *Instr) Target() (uint64, bool) {
	switch in.Op {
	case OpJmp, OpBr, OpBrI, OpCall:
		return uint64(in.Imm), true
	}
	return 0, false
}

func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt, OpRet:
		return in.Op.String()
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%v %v, %v, %v", in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpAddI, OpMulI, OpAndI, OpShrI:
		return fmt.Sprintf("%v %v, %v, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %v, %v", in.Rd, in.Rs1)
	case OpMovI:
		return fmt.Sprintf("movi %v, %d", in.Rd, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load%d%s %v, %v", in.Size, in.ntSuffix(), in.Rd, in.Mem)
	case OpStore:
		return fmt.Sprintf("store%d%s %v, %v", in.Size, in.ntSuffix(), in.Rs1, in.Mem)
	case OpPrefetch:
		return fmt.Sprintf("prefetch %v", in.Mem)
	case OpJmp:
		return fmt.Sprintf("jmp %#x", uint64(in.Imm))
	case OpBr:
		return fmt.Sprintf("br.%v %v, %v, %#x", in.Cond, in.Rs1, in.Rs2, uint64(in.Imm))
	case OpBrI:
		return fmt.Sprintf("bri.%v %v, %d, %#x", in.Cond, in.Rs1, in.Imm2, uint64(in.Imm))
	case OpCall:
		return fmt.Sprintf("call %#x", uint64(in.Imm))
	case OpJmpInd:
		return fmt.Sprintf("jmpind %v", in.Rs1)
	}
	return in.Op.String()
}

func (in *Instr) ntSuffix() string {
	if in.NT {
		return ".nt"
	}
	return ""
}

// InstrBytes is the size of one encoded instruction. Instruction PCs
// advance by this amount, giving every instruction a distinct address in
// the same address space as data (profiles mix the two, as on real
// hardware).
const InstrBytes = 16

// BaseCost returns the base cycle cost of executing the instruction,
// excluding memory-hierarchy stalls. The costs are loosely modelled on a
// simple in-order pipeline; what matters for the reproduction is that the
// ratio between ALU work and memory stalls is plausible.
func (in *Instr) BaseCost() uint64 { return uint64(baseCosts[in.Op]) }

// baseCosts is BaseCost by opcode, a table because the interpreter reads
// it once per executed instruction.
var baseCosts = func() (c [256]uint8) {
	for op := range c {
		c[op] = 1 // loads and stores: plus hierarchy latency, added by the machine
	}
	c[OpMul], c[OpMulI] = 3, 3
	c[OpDiv] = 12
	c[OpCall], c[OpRet], c[OpJmpInd] = 2, 2, 2
	return c
}()

// Validate reports whether the instruction is well formed: defined opcode,
// valid registers for the fields its opcode uses, and a legal access size
// for memory ops.
func (in *Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	checkReg := func(name string, r Reg) error {
		if !r.Valid() {
			return fmt.Errorf("isa: %v: invalid %s register %d", in.Op, name, uint8(r))
		}
		return nil
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr:
		for _, c := range []struct {
			n string
			r Reg
		}{{"rd", in.Rd}, {"rs1", in.Rs1}, {"rs2", in.Rs2}} {
			if err := checkReg(c.n, c.r); err != nil {
				return err
			}
		}
	case OpAddI, OpMulI, OpAndI, OpShrI, OpMov:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := checkReg("rs1", in.Rs1); err != nil {
			return err
		}
	case OpMovI:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
	case OpLoad:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := in.validateMem(); err != nil {
			return err
		}
	case OpStore:
		if err := checkReg("rs1", in.Rs1); err != nil {
			return err
		}
		if err := in.validateMem(); err != nil {
			return err
		}
	case OpPrefetch:
		if err := in.validateMem(); err != nil {
			return err
		}
	case OpBr:
		if !in.Cond.Valid() {
			return fmt.Errorf("isa: br: invalid condition %d", uint8(in.Cond))
		}
		if err := checkReg("rs1", in.Rs1); err != nil {
			return err
		}
		if err := checkReg("rs2", in.Rs2); err != nil {
			return err
		}
	case OpBrI:
		if !in.Cond.Valid() {
			return fmt.Errorf("isa: bri: invalid condition %d", uint8(in.Cond))
		}
		if err := checkReg("rs1", in.Rs1); err != nil {
			return err
		}
	case OpJmpInd:
		if err := checkReg("rs1", in.Rs1); err != nil {
			return err
		}
	}
	return nil
}

func (in *Instr) validateMem() error {
	m := in.Mem
	if m.Base != NoReg && !m.Base.Valid() {
		return fmt.Errorf("isa: %v: invalid base register %d", in.Op, uint8(m.Base))
	}
	if m.Index != NoReg {
		if !m.Index.Valid() {
			return fmt.Errorf("isa: %v: invalid index register %d", in.Op, uint8(m.Index))
		}
		switch m.Scale {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: %v: invalid scale %d", in.Op, m.Scale)
		}
	}
	if in.Op == OpPrefetch {
		return nil
	}
	switch in.Size {
	case 1, 2, 4, 8:
		return nil
	}
	return fmt.Errorf("isa: %v: invalid access size %d", in.Op, in.Size)
}
