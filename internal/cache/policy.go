package cache

// Replacement policies. The paper's mini-simulator uses true LRU (§5:
// "The simulator implements an LRU replacement policy although other
// schemes are possible"); the package provides the common alternatives so
// the analyzer's sensitivity to the policy can be measured (see the
// BenchmarkAblationPolicy ablation).

// Policy selects a victim way within a set.
type Policy int

// Supported replacement policies.
const (
	// LRU evicts the least recently used line (default; the paper's
	// choice, and what the modelled P4/K7 approximate).
	LRU Policy = iota
	// FIFO evicts the oldest-installed line regardless of use.
	FIFO
	// Random evicts a pseudo-random line (deterministic xorshift so runs
	// stay reproducible).
	Random
	// PLRU is tree pseudo-LRU, the common hardware approximation.
	PLRU
)

var policyNames = [...]string{LRU: "LRU", FIFO: "FIFO", Random: "Random", PLRU: "PLRU"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return "Policy(?)"
}

// Valid reports whether p names a supported policy.
func (p Policy) Valid() bool { return p >= LRU && p <= PLRU }

// victim picks the way to replace in a full set according to the cache's
// policy. base is the set's offset into the flat lanes; the set has no
// invalid ways when victim is called.
func (c *Cache) victim(set uint64, base int) int {
	switch c.policy {
	case LRU:
		if c.ages != nil {
			return ageEvictWay(c.ages[set], c.ageVict, c.ageGE)
		}
		return minWay(c.lastUse[base:base+c.assoc:base+c.assoc], c.wayBits)
	case FIFO:
		// The round-robin lane already names the oldest install; install()
		// advances it past the victim.
		return int(c.fifoNext[set])
	case Random:
		// xorshift64 over a per-cache seed: deterministic, cheap, and
		// uncorrelated with the access pattern.
		c.rngState ^= c.rngState << 13
		c.rngState ^= c.rngState >> 7
		c.rngState ^= c.rngState << 17
		return int(c.rngState % uint64(c.assoc))
	case PLRU:
		return c.plruVictim(set)
	}
	return 0
}

// plruVictim resolves the PLRU victim for the set. The tree is stored as
// assoc-1 bits per set in plruBits; a 0 bit points left, 1 points right,
// and the victim is found by following the bits *away* from recent use.
func (c *Cache) plruVictim(set uint64) int {
	tree := c.plruBits[set]
	node, idx := 0, 0
	// Walk log2(assoc) levels. assoc is a power of two for PLRU use; the
	// constructor validates this.
	for levelSize := c.assoc / 2; levelSize >= 1; levelSize /= 2 {
		bit := (tree >> uint(node)) & 1
		// Follow the bit: it points to the less recently used side.
		idx = idx*2 + int(bit)
		node = node*2 + 1 + int(bit)
	}
	return idx
}

// plruTouch updates the PLRU tree so the path to way points away from it:
// two precomputed mask operations replacing the old level-by-level walk.
func (c *Cache) plruTouch(set uint64, way int) {
	if c.policy != PLRU {
		return
	}
	c.plruBits[set] = c.plruBits[set]&^c.plruOff[way] | c.plruOn[way]
}

// plruTouchMasks precomputes, for every way, the tree bits a touch sets
// (plruOn, nodes entered leftward) and clears (plruOff, nodes entered
// rightward). Touching way w is then bits&^off[w] | on[w].
func plruTouchMasks(assoc int) (on, off []uint64) {
	on = make([]uint64, assoc)
	off = make([]uint64, assoc)
	levels := 0
	for 1<<levels < assoc {
		levels++
	}
	for way := 0; way < assoc; way++ {
		node := 0
		for l := levels - 1; l >= 0; l-- {
			dir := (way >> uint(l)) & 1
			if dir == 1 {
				off[way] |= 1 << uint(node) // recent on the right: point left
			} else {
				on[way] |= 1 << uint(node) // recent on the left: point right
			}
			node = node*2 + 1 + dir
		}
	}
	return on, off
}
