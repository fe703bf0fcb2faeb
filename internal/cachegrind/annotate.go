package cachegrind

import (
	"fmt"
	"sort"
	"strings"

	"umi/internal/program"
)

// Annotate renders the program's disassembly with per-instruction miss
// statistics interleaved — the reproduction's cg_annotate. Only memory
// instructions with recorded activity carry annotations; block labels come
// from the symbol table. Cold code (never-executed library blocks) is
// elided by default; withCold includes it.
func (s *Simulator) Annotate(p *program.Program, withCold bool) string {
	byAddr := make(map[uint64][]string)
	for sym, addr := range p.Symbols {
		byAddr[addr] = append(byAddr[addr], sym)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %s — %d refs, L2 %d/%d misses (%.3f%%)\n",
		p.Name, s.Refs, s.L2Misses, s.L2Accesses, 100*s.L2MissRatio())
	fmt.Fprintf(&sb, "; %-12s %-12s %-10s\n", "accesses", "L2 misses", "ratio")

	skipping := false
	skipped := 0
	for i := range p.Instrs {
		pc := p.PCOf(i)
		in := &p.Instrs[i]
		st := s.perPC[pc]

		if syms := byAddr[pc]; len(syms) > 0 {
			// A label boundary: decide whether the following block is
			// cold by looking at this instruction.
			if !withCold && st == nil && !blockExecuted(s, p, i) {
				skipping = true
				skipped++
				continue
			}
			if skipping {
				fmt.Fprintf(&sb, "; ... %d cold blocks elided ...\n", skipped)
				skipping = false
				skipped = 0
			}
			sort.Strings(syms)
			for _, sym := range syms {
				fmt.Fprintf(&sb, "%s:\n", sym)
			}
		}
		if skipping {
			continue
		}
		switch {
		case st != nil:
			fmt.Fprintf(&sb, "  %-12d %-12d %-8.4f  %#08x  %v\n",
				st.Accesses, st.L2Misses, st.MissRatio(), pc, in)
		default:
			fmt.Fprintf(&sb, "  %-12s %-12s %-8s  %#08x  %v\n", ".", ".", ".", pc, in)
		}
	}
	if skipping {
		fmt.Fprintf(&sb, "; ... %d cold blocks elided ...\n", skipped)
	}
	return sb.String()
}

// blockExecuted reports whether any memory instruction from index i to the
// end of its block (first branch) has recorded activity; blocks without
// memory instructions are treated as executed so control flow stays
// visible.
func blockExecuted(s *Simulator, p *program.Program, i int) bool {
	sawMem := false
	for ; i < len(p.Instrs); i++ {
		in := &p.Instrs[i]
		if in.Op.IsLoad() || in.Op.IsStore() {
			sawMem = true
			if _, ok := s.perPC[p.PCOf(i)]; ok {
				return true
			}
		}
		if in.Op.IsBranch() {
			break
		}
	}
	return !sawMem
}
