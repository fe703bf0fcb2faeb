// Package cache models set-associative caches, multi-level hierarchies, and
// the Pentium 4 hardware prefetchers (adjacent cache line and stride).
//
// The package serves three roles in the reproduction:
//
//  1. as the ground-truth "hardware" the guest machine runs against (the
//     Hierarchy type implements vm.MemModel, and its statistics are what
//     the hardware performance counter model reads);
//  2. as the fast mini-simulator inside UMI's profile analyzer (a single
//     Cache with LRU replacement, exactly the simulator §5 describes);
//  3. as the engine of the Cachegrind-style offline simulator.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name     string
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes, power of two
	// Policy is the replacement policy; the zero value is LRU, the
	// paper's choice.
	Policy Policy
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Size / (c.Assoc * c.LineSize) }

// Validate checks the configuration is realizable.
func (c Config) Validate() error {
	if c.Size <= 0 || c.Assoc <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Assoc > 64 {
		// One valid-bitmask word per set; real hardware tops out far below.
		return fmt.Errorf("cache %s: associativity %d exceeds the 64-way limit", c.Name, c.Assoc)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	sets := c.Sets()
	if sets <= 0 || c.Size != sets*c.Assoc*c.LineSize {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			c.Name, c.Size, c.Assoc, c.LineSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("cache %s: invalid replacement policy %d", c.Name, int(c.Policy))
	}
	if c.Policy == PLRU && c.Assoc&(c.Assoc-1) != 0 {
		return fmt.Errorf("cache %s: PLRU requires power-of-two associativity, got %d", c.Name, c.Assoc)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("%s: %dKB %d-way %dB lines (%d sets)",
		c.Name, c.Size/1024, c.Assoc, c.LineSize, c.Sets())
}

// Evaluation-platform cache configurations from §6 of the paper.
var (
	// PentiumIV (§6): 8KB 4-way L1D, 512KB 8-way unified L2, 64B lines.
	P4L1D = Config{Name: "P4-L1D", Size: 8 * 1024, Assoc: 4, LineSize: 64}
	P4L2  = Config{Name: "P4-L2", Size: 512 * 1024, Assoc: 8, LineSize: 64}

	// AMD K7 (§6): 64KB 2-way L1D, 256KB 16-way unified L2, 64B lines.
	K7L1D = Config{Name: "K7-L1D", Size: 64 * 1024, Assoc: 2, LineSize: 64}
	K7L2  = Config{Name: "K7-L2", Size: 256 * 1024, Assoc: 16, LineSize: 64}
)

// coldLine holds the prefetch bookkeeping a demand access only touches when
// prefetch state actually exists (coldActive): coverage marking and the
// in-flight fill deadline.
type coldLine struct {
	// readyAt is the logical time at which an in-flight fill completes. A
	// demand access arriving earlier pays a late-fill penalty.
	readyAt uint64
	// prefetched marks a line installed by a prefetcher and not yet
	// touched by a demand access; used for prefetch coverage accounting.
	prefetched bool
}

// Cache is one set-associative cache level with true-LRU replacement by
// default, as in the paper's mini-simulator ("an empty line, or the oldest
// line, is selected"; "we use a counter to simulate time").
//
// Line state lives in parallel lanes indexed by set*assoc+way, way-major
// within each set, so the bytes a demand scan touches are exactly the lane
// it needs and nothing else:
//
//   - tags: the tag-compare lane the hit scan walks — 8 bytes per way, so
//     a whole 8-way set's tags fit one host cache line;
//   - lastUse: the recency lane (install time under FIFO), written on hit
//     and read only by the LRU victim scan on an eviction;
//   - valid: one bitmask word per set (bit w = way w valid), which turns
//     validity checks, invalid-way selection, and residency counting into
//     single bit operations;
//   - cold: prefetch bookkeeping, allocated by the first prefetching
//     install (most caches never see one) and consulted only where it
//     exists.
type Cache struct {
	cfg  Config
	tags []uint64 // Sets()*Assoc entries, way-major within each set
	// lastUse is the wide-LRU recency lane (packed timestamps, see
	// packUse); allocated only for LRU caches wider than 8 ways. Narrow
	// LRU caches keep their whole recency stack in ages instead.
	lastUse []uint64
	// ages holds one SWAR age vector per set (LRU, assoc ≤ 8 only): an
	// age byte per way, 0 = most recent. See hotpath.go.
	ages  []uint64
	valid []uint64 // one word per set
	cold  []coldLine

	assoc     int
	wayMask   uint64 // low Assoc bits set: a full set's valid word
	wayBits   uint   // bits.Len(assoc-1): shift for packed recency stamps
	setMask   uint64
	lineShift uint
	setBits   uint
	clock     uint64

	// coldActive is true while any cold entry is non-zero, so the fused
	// LRU demand paths can skip prefetch bookkeeping entirely while false.
	// coldLive counts those entries exactly: it rises when a prefetch
	// installs state and falls when a demand hit consumes it or an eviction
	// overwrites it, so coldActive clears — and the fast path re-engages —
	// as soon as the last prefetched line is gone, not only at Flush.
	coldActive bool
	coldLive   int

	// fast caches the demand-path selection (layout × coldActive) as a
	// single byte, so Access pays one load and one switch instead of
	// re-deriving the choice per call. refast() recomputes it at every
	// coldActive transition.
	fast uint8

	policy   Policy
	rngState uint64   // Random policy state
	plruBits []uint64 // PLRU tree bits, one word per set

	// SWAR masks for the age-vector updates, restricted to the low assoc
	// bytes: the per-byte increment (0x01s), the per-byte high bits
	// (0x80s), and assoc-1 broadcast for the victim scan.
	ageInc  uint64
	ageGE   uint64
	ageVict uint64

	// fifoNext is FIFO's round-robin victim lane: ways fill in index order
	// (fills always take the lowest invalid way and lines only invalidate
	// wholesale at Flush), so once a set is full its oldest line is exactly
	// the way this pointer names — no install-time scan needed. install
	// advances it to victim+1 mod assoc, which keeps it equal to a
	// min-install-time scan.
	fifoNext []int32

	// plruOn/plruOff are PLRU's per-way touch masks, built once per New,
	// replacing the level-by-level tree walk on every touch.
	plruOn  []uint64
	plruOff []uint64

	stats Stats
}

// Stats counts the demand traffic a cache has simulated: accesses and
// misses through Access, and evictions of valid lines (demand or prefetch
// installs alike). Plain fields, not atomics — a Cache already requires a
// single owner; the UMI layer mirrors these into its atomic registry at
// synchronization points. Flush keeps the counts running (the analyzer's
// periodic flush is part of one logical run).
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns the traffic counters accumulated so far. The access count
// is read straight off the recency clock: the clock ticks exactly once
// per demand access (and never for prefetch installs), so the two were
// always the same number and the hot paths only maintain one.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = c.clock
	return s
}

// rngSeed is the initial xorshift state for the Random policy; fixed so
// every run replays identically.
const rngSeed = 0x9E3779B97F4A7C15

// New builds a cache from the config, panicking on invalid geometry
// (configurations are build-time constants in this codebase).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits != cfg.Sets() {
		setBits++
	}
	n := cfg.Sets() * cfg.Assoc
	c := &Cache{cfg: cfg,
		tags:  make([]uint64, n),
		valid: make([]uint64, cfg.Sets()),
		assoc: cfg.Assoc, wayMask: ^uint64(0) >> (64 - uint(cfg.Assoc)),
		wayBits: uint(bits.Len(uint(cfg.Assoc - 1))),
		setMask: uint64(cfg.Sets() - 1), lineShift: shift,
		setBits: setBits, policy: cfg.Policy, rngState: rngSeed}
	// Invalid ways hold invalidTag so the 8-way fused path's sign-AND miss
	// test is exact for partial sets too (see hotpath.go).
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	switch cfg.Policy {
	case LRU:
		if cfg.Assoc <= 8 {
			c.ages = make([]uint64, cfg.Sets())
			span := ^uint64(0)
			if cfg.Assoc < 8 {
				span = 1<<(8*uint(cfg.Assoc)) - 1
			}
			c.ageInc = lowBytes & span
			c.ageGE = highBytes & span
			c.ageVict = uint64(cfg.Assoc-1) * lowBytes
		} else {
			c.lastUse = make([]uint64, n)
		}
	case PLRU:
		c.plruBits = make([]uint64, cfg.Sets())
		c.plruOn, c.plruOff = plruTouchMasks(cfg.Assoc)
	case FIFO:
		c.fifoNext = make([]int32, cfg.Sets())
	}
	c.refast()
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineOf returns the line-aligned address containing addr.
func (c *Cache) LineOf(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineSize) - 1) }

func (c *Cache) setAndTag(addr uint64) (uint64, uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> c.setBits
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// PrefetchedHit is set when the access hit a line that was installed
	// by a prefetcher and had not yet been demanded: a useful prefetch.
	PrefetchedHit bool
	// Late is set when the access hit an in-flight fill that had not yet
	// completed (the prefetch was issued too late to hide all latency).
	Late bool
}

// Demand-path selector values (Cache.fast). fpSlow is the zero value so a
// cache that never calls refast stays on the always-correct general path.
const (
	fpSlow uint8 = iota
	fpLRU8
	fpLRUNarrow
)

// refast recomputes the demand-path selector. Call after anything that
// changes its inputs — in practice only coldActive transitions (policy and
// layout are fixed at New). Only LRU at 8 ways or fewer has fused bodies:
// that is every level the Pentium 4 hierarchy and the default
// mini-simulator run. FIFO, Random, PLRU and wider LRU take accessSlow,
// which implements each of them exactly.
func (c *Cache) refast() {
	switch {
	case c.coldActive || c.ages == nil:
		c.fast = fpSlow
	case c.assoc == 8 && c.lineShift+c.setBits > 0:
		// The 8-way path's exact sign-AND miss test needs invalidTag to be
		// unreachable as a lookup tag, which one bit of shift guarantees
		// (tag < 2^63). A degenerate 1-byte-line single-set geometry falls
		// back to the generic narrow path.
		c.fast = fpLRU8
	default:
		c.fast = fpLRUNarrow
	}
}

// Access performs one demand access. On miss the line is installed
// (demand fill completes immediately).
func (c *Cache) Access(addr uint64) AccessResult {
	switch c.fast {
	case fpLRU8:
		return c.accessLRU8(addr)
	case fpLRUNarrow:
		return c.accessLRUNarrow(addr)
	}
	return c.accessSlow(addr)
}

// accessLRUNarrow is the fused LRU demand path for assoc ≤ 8 at widths
// other than 8 (which has its own unrolled body, accessLRU8): generic
// branchless tag scan plus the SWAR age-vector recency update. Behaviour
// is exactly accessSlow's under the fast-path preconditions (cold entries
// are all zero while coldActive is false, and plruTouch is a no-op for
// LRU).
func (c *Cache) accessLRUNarrow(addr uint64) AccessResult {
	c.clock++
	l := addr >> c.lineShift
	set := l & c.setMask
	tag := l >> c.setBits
	base := int(set) * c.assoc
	tags := c.tags[base : base+c.assoc : base+c.assoc]
	vm := c.valid[set]
	if vm == c.wayMask {
		if missAllFull(tags, tag) {
			c.stats.Misses++
			c.stats.Evictions++
			way := ageEvictWay(c.ages[set], c.ageVict, c.ageGE)
			tags[way] = tag
			c.ages[set] = ageInstall(c.ages[set], way, c.ageInc)
			return AccessResult{}
		}
		way := bits.TrailingZeros64(matchWays(tags, tag, vm))
		c.ages[set] = ageTouch(c.ages[set], way, c.ageInc, c.ageGE)
		return AccessResult{Hit: true}
	}
	if m := matchWays(tags, tag, vm); m != 0 {
		way := bits.TrailingZeros64(m)
		c.ages[set] = ageTouch(c.ages[set], way, c.ageInc, c.ageGE)
		return AccessResult{Hit: true}
	}
	c.stats.Misses++
	way := bits.TrailingZeros64(^vm & c.wayMask)
	c.valid[set] = vm | 1<<uint(way)
	tags[way] = tag
	c.ages[set] = ageInstall(c.ages[set], way, c.ageInc)
	return AccessResult{}
}

// accessSlow is the general demand access: any policy and width, prefetch
// state live or not. It is the only body for FIFO, Random, PLRU and LRU
// wider than 8 ways, and the reference the fused LRU bodies are
// equivalence-tested against.
func (c *Cache) accessSlow(addr uint64) AccessResult {
	c.clock++
	set, tag := c.setAndTag(addr)
	base := int(set) * c.assoc
	tags := c.tags[base : base+c.assoc : base+c.assoc]
	if m := matchWays(tags, tag, c.valid[set]); m != 0 {
		i := bits.TrailingZeros64(m)
		res := AccessResult{Hit: true}
		if cd := c.coldAt(base + i); cd != nil && (cd.prefetched || cd.readyAt != 0) {
			if cd.prefetched {
				res.PrefetchedHit = true
			}
			if cd.readyAt > c.clock {
				res.Late = true
			}
			// Clear the whole entry, not just the consumed fields: a
			// stale readyAt at or before the clock can never fire again
			// (the Late check and the Install clamp both require a
			// future deadline), so zeroing it is behaviour-neutral and
			// keeps coldLive an exact count of non-zero entries.
			*cd = coldLine{}
			c.coldDec()
		}
		if c.ages != nil {
			c.ages[set] = ageTouch(c.ages[set], i, c.ageInc, c.ageGE)
		} else if c.lastUse != nil {
			// Recency state only steers LRU victim selection; other
			// policies keep none.
			c.lastUse[base+i] = packUse(c.clock, c.wayBits, i)
		}
		c.plruTouch(set, i)
		return res
	}
	c.stats.Misses++
	c.install(set, tag, false, 0)
	return AccessResult{}
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.setAndTag(addr)
	base := int(set) * c.assoc
	return matchWays(c.tags[base:base+c.assoc:base+c.assoc], tag, c.valid[set]) != 0
}

// Install brings addr's line in as a prefetch that completes after delay
// further accesses. When the line is already resident with a fill still in
// flight, the re-issued prefetch clamps the completion time to
// min(readyAt, clock+delay): a closer prefetch accelerates the fill, and a
// farther one never pushes it back. A resident, completed line is untouched.
func (c *Cache) Install(addr uint64, delay uint64) {
	set, tag := c.setAndTag(addr)
	base := int(set) * c.assoc
	if m := matchWays(c.tags[base:base+c.assoc:base+c.assoc], tag, c.valid[set]); m != 0 {
		i := bits.TrailingZeros64(m)
		if cd := c.coldAt(base + i); cd != nil && c.clock+delay < cd.readyAt {
			cd.readyAt = c.clock + delay
		}
		return
	}
	c.install(set, tag, true, c.clock+delay)
}

func (c *Cache) install(set, tag uint64, prefetched bool, readyAt uint64) {
	base := int(set) * c.assoc
	vm := c.valid[set]
	var victim int
	if inv := ^vm & c.wayMask; inv != 0 {
		victim = bits.TrailingZeros64(inv)
		c.valid[set] = vm | 1<<uint(victim)
	} else {
		victim = c.victim(set, base)
		c.stats.Evictions++
	}
	c.tags[base+victim] = tag
	if c.ages != nil {
		c.ages[set] = ageInstall(c.ages[set], victim, c.ageInc)
	} else if c.lastUse != nil {
		c.lastUse[base+victim] = packUse(c.clock, c.wayBits, victim)
	}
	if c.policy == FIFO {
		// Keep the round-robin lane in lockstep: fills take ways in index
		// order and evictions take the pointer, so victim+1 is always the
		// next-oldest line.
		next := int32(victim) + 1
		if int(next) == c.assoc {
			next = 0
		}
		c.fifoNext[set] = next
	}
	if cd := c.coldAt(base + victim); cd != nil && (cd.prefetched || cd.readyAt != 0) {
		*cd = coldLine{}
		c.coldDec() // evicting a line that still carried prefetch state
	}
	if prefetched || readyAt != 0 {
		if c.cold == nil {
			// The first prefetch allocates the lane.
			c.cold = make([]coldLine, len(c.tags))
		}
		c.cold[base+victim] = coldLine{prefetched: prefetched, readyAt: readyAt}
		c.coldLive++
		c.coldActive = true
		c.refast()
	}
	c.plruTouch(set, victim)
}

// coldAt returns line i's prefetch bookkeeping, or nil while no prefetch
// has allocated the cold lane.
func (c *Cache) coldAt(i int) *coldLine {
	if c.cold == nil {
		return nil
	}
	return &c.cold[i]
}

// coldDec retires one live cold entry, re-arming the fused LRU demand
// paths the moment the last one is gone.
func (c *Cache) coldDec() {
	c.coldLive--
	if c.coldLive == 0 {
		c.coldActive = false
		c.refast()
	}
}

// PrefetchResident counts lines still carrying prefetch state (coverage
// marks or in-flight fill deadlines); the fused LRU demand paths are
// available exactly while this is zero.
func (c *Cache) PrefetchResident() int { return c.coldLive }

// Flush invalidates the entire cache, including replacement-policy recency
// state: with every line gone, stale PLRU tree bits or a stale FIFO
// pointer would otherwise steer victim selection by pre-flush history. The
// clock and statistics keep running — the paper's analyzer flushes its
// logical cache when more than 1M cycles have elapsed since it last ran,
// to avoid long-term contamination, and that is a pause within one logical
// run, not a restart. The cold lane is cleared only while coldLive, the
// exact count of its non-zero entries, says it holds any: a cache that
// never saw a prefetch (the analyzer's mini-simulator) skips it.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = 0
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.lastUse {
		c.lastUse[i] = 0
	}
	for i := range c.ages {
		c.ages[i] = 0
	}
	if c.coldLive > 0 {
		for i := range c.cold {
			c.cold[i] = coldLine{}
		}
	}
	for i := range c.plruBits {
		c.plruBits[i] = 0
	}
	for i := range c.fifoNext {
		c.fifoNext[i] = 0
	}
	c.coldActive = false
	c.coldLive = 0
	c.refast()
}

// Resident counts valid lines (for tests).
func (c *Cache) Resident() int {
	n := 0
	for _, v := range c.valid {
		n += bits.OnesCount64(v)
	}
	return n
}
