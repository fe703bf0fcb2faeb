// Package rio is the reproduction's DynamoRIO analogue: a runtime code
// manipulation layer that executes guest programs out of a code cache,
// discovers basic blocks on demand, promotes hot block sequences into
// single-entry multiple-exit traces, links fragments to avoid dispatch
// overhead, and exposes the instrumentation surface UMI builds on (trace
// observation callbacks, per-operation memory hooks, trace cloning and
// replacement, and PC sampling).
//
// The layer also carries the cost model that stands in for real DynamoRIO
// overhead: fragment construction, unlinked dispatches and indirect-branch
// lookups add cycles, while instructions executed from traces earn a small
// code-layout credit. Figure 2's three bars (DynamoRIO, UMI, UMI+sampling)
// are ratios of these modelled cycle totals.
package rio

import (
	"fmt"

	"umi/internal/isa"
	"umi/internal/vm"
)

// MemHook observes one profiled memory reference executed inside an
// instrumented fragment.
type MemHook = vm.RefHook

// Instrumentation attaches UMI profiling to a fragment. The zero value
// means "not instrumented".
type Instrumentation struct {
	// Prolog runs on every fragment entry (the paper's bookkeeping
	// prolog: one conditional jump thanks to the guard-page trick). If it
	// returns true, the entry is profiled: the fragment's hooks are
	// installed for this execution. If it returns false, the dispatcher
	// re-resolves the fragment for the same PC: when the prolog replaced
	// the fragment (analysis finished) execution continues in the
	// replacement, and when it did not (a burst-sampling skip) this entry
	// executes unprofiled, paying only PrologCost.
	Prolog func() bool
	// Hooks is nil or aligned with the fragment's Instrs: Hooks[i], set
	// only at loads and stores, observes instruction i's reference on
	// profiled entries (after the machine's own RefHook), and each one
	// that fires costs PerRefCost. A PC the fragment repeats carries a
	// hook at every copy.
	Hooks []MemHook
	// PerRefCost is charged per profiled reference (the paper's 4-6
	// extra operations per recorded (pc, address) tuple).
	PerRefCost uint64
	// PrologCost is charged per fragment entry.
	PrologCost uint64
}

// Fragment is a code-cache fragment: a dynamic basic block or a trace.
type Fragment struct {
	ID    int
	Start uint64 // application PC of the fragment head
	// Instrs is the copied code; PCs holds each instruction's original
	// application PC (instrumented clones and prefetching rewrites keep
	// original PCs so profiles stay in application terms).
	Instrs []isa.Instr
	PCs    []uint64

	IsTrace bool
	// ExecCount counts fragment entries.
	ExecCount uint64

	// Instr is the attached instrumentation, nil for clean fragments.
	Instr *Instrumentation

	// links records exit targets with established direct links; a
	// transition through a linked exit bypasses dispatch. A fragment has
	// a handful of direct exits, so a scan beats hashing.
	links []link

	// blocks lists the head PCs of the basic blocks inlined into a trace
	// (for diagnostics and tests).
	blocks []uint64
}

// NumInstrs returns the fragment length in instructions.
func (f *Fragment) NumInstrs() int { return len(f.Instrs) }

// Blocks returns the head PCs of the blocks inlined into this trace.
func (f *Fragment) Blocks() []uint64 { return f.blocks }

// link is one established direct link. It carries the fragment its
// target resolved to when the link was last used, valid only while the
// runtime's code-cache generation is still gen.
type link struct {
	target uint64
	to     *Fragment
	gen    uint64
}

// Linked reports whether an exit to target has been linked.
func (f *Fragment) Linked(target uint64) bool { return f.linkTo(target) != nil }

// linkTo returns the link for an exit to target, nil if there is none.
func (f *Fragment) linkTo(target uint64) *link {
	for i := range f.links {
		if f.links[i].target == target {
			return &f.links[i]
		}
	}
	return nil
}

func (f *Fragment) link(target uint64) *link {
	f.links = append(f.links, link{target: target})
	return &f.links[len(f.links)-1]
}

// unlinkAll drops every established link (used when a fragment is
// replaced, since its successors may now differ).
func (f *Fragment) unlinkAll() { f.links = nil }

// MemOps returns the indexes of load/store instructions in the fragment.
func (f *Fragment) MemOps() []int {
	var out []int
	for i := range f.Instrs {
		op := f.Instrs[i].Op
		if op.IsLoad() || op.IsStore() {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the fragment's code with no
// instrumentation, links, or execution history — the paper's T_c, kept so
// profiling can be switched off by swapping fragments.
func (f *Fragment) Clone() *Fragment {
	c := &Fragment{
		ID:      f.ID,
		Start:   f.Start,
		Instrs:  append([]isa.Instr(nil), f.Instrs...),
		PCs:     append([]uint64(nil), f.PCs...),
		IsTrace: f.IsTrace,
		blocks:  append([]uint64(nil), f.blocks...),
	}
	return c
}

func (f *Fragment) String() string {
	kind := "block"
	if f.IsTrace {
		kind = "trace"
	}
	inst := ""
	if f.Instr != nil {
		inst = " instrumented"
	}
	return fmt.Sprintf("%s@%#x[%d instrs]%s", kind, f.Start, len(f.Instrs), inst)
}
