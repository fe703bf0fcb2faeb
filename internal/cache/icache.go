package cache

// Instruction-cache modelling. The paper's UMI mini-simulator does not
// simulate an instruction cache and conjectures (§6.2) that instruction
// caching magnifies the correlation gap on the AMD K7, whose unified L2 is
// half the Pentium 4's. The hierarchy optionally models an L1I feeding the
// same L2, so that conjecture can be tested: with the instruction cache
// enabled, code misses perturb the L2 the mini-simulator never sees.

// Instruction-cache configurations for the evaluation platforms. The P4's
// trace cache holds 12K micro-ops (§6); 16 KiB is the conventional
// capacity equivalent. The K7 has a 64 KiB L1I.
var (
	P4L1I = Config{Name: "P4-L1I", Size: 16 * 1024, Assoc: 8, LineSize: 64}
	K7L1I = Config{Name: "K7-L1I", Size: 64 * 1024, Assoc: 2, LineSize: 64}
)

// EnableICache attaches an instruction cache to the hierarchy. Instruction
// fetches then flow L1I -> L2 and appear in the L2 statistics exactly like
// data traffic (both platforms have unified L2s).
func (h *Hierarchy) EnableICache(cfg Config) {
	h.L1I = New(cfg)
}

// FetchesInstrs reports whether instruction fetches cost anything: not
// until an instruction cache is attached. A vm.Machine reads it when it is
// built or reset and skips the per-instruction FetchInstr call when false,
// so attach the instruction cache before handing the hierarchy to vm.New.
func (h *Hierarchy) FetchesInstrs() bool { return h.L1I != nil }

// FetchInstr models one instruction fetch at pc and returns the stall
// cycles. Without an instruction cache attached it is free (the default,
// matching the paper's data-only simulators). It implements
// vm.InstrFetchModel.
func (h *Hierarchy) FetchInstr(pc uint64) uint64 {
	if h.L1I == nil {
		return 0
	}
	h.L1IStats.Accesses++
	h.L1IStats.ReadAccesses++
	if h.L1I.Access(pc).Hit {
		return 0
	}
	h.L1IStats.Misses++
	h.L1IStats.ReadMisses++

	h.L2Stats.Accesses++
	h.L2Stats.ReadAccesses++
	if h.L2.Access(pc).Hit {
		return h.Lat.L2Hit
	}
	h.L2Stats.Misses++
	h.L2Stats.ReadMisses++
	return h.Lat.Memory
}
