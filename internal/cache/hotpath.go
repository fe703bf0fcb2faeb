package cache

import "math/bits"

// Hot-path primitives shared by the demand paths. The lane layout (tags /
// valid / per-set recency, see cache.go) makes every one of these a
// straight walk over contiguous uint64 words.
//
// LRU recency comes in two representations:
//
//   - assoc ≤ 8: a per-set SWAR age vector — one uint64 holding an age
//     byte per way, a permutation of 0..assoc-1 once the set is full
//     (0 = most recent, assoc-1 = the victim). Hits, fills, and
//     evictions update the whole stack with a handful of byte-parallel
//     operations on that single word, so the demand path touches eight
//     recency bytes instead of a 64-byte timestamp lane.
//   - assoc > 8: packed per-way timestamps in the lastUse lane, with a
//     linear minimum scan for the victim.
//
// Both are exact LRU; only the representation differs.

// packUse packs a recency stamp with its way index (wide-LRU
// representation): the victim scan recovers the way straight out of the
// minimum value, and ties between equal clocks break toward the lower
// way. Packing caps the usable clock at 2^(64-wayBits) accesses (2^58 at
// the 64-way limit), far past any realizable run.
func packUse(clock uint64, wayBits uint, way int) uint64 {
	return clock<<wayBits | uint64(way)
}

// isZero64 returns 1 when d is zero, 0 otherwise, without a branch.
func isZero64(d uint64) uint64 { return 1 &^ ((d | -d) >> 63) }

// matchWays returns the bitmask of valid ways whose tag equals tag. The
// scan is branchless — four XOR/zero-test lanes per iteration folded into
// one mask word — so a hit in way 7 costs the same, perfectly predicted,
// instructions as a hit in way 0.
func matchWays(tags []uint64, tag, valid uint64) uint64 {
	var m uint64
	i := 0
	for ; i+4 <= len(tags); i += 4 {
		d0 := tags[i] ^ tag
		d1 := tags[i+1] ^ tag
		d2 := tags[i+2] ^ tag
		d3 := tags[i+3] ^ tag
		m |= (isZero64(d0) | isZero64(d1)<<1 | isZero64(d2)<<2 | isZero64(d3)<<3) << uint(i)
	}
	for ; i < len(tags); i++ {
		m |= isZero64(tags[i]^tag) << uint(i)
	}
	return m & valid
}

// missAllFull reports whether tag misses every way of a FULL set: the
// sign bit of d|-d is set exactly when d is non-zero, so AND-ing the
// sign words over all ways leaves it set exactly when no way matches.
// This is an exact test, not a filter — but only for full sets, where
// no stale tag hides behind a cleared valid bit.
func missAllFull(tags []uint64, tag uint64) bool {
	acc := ^uint64(0)
	for _, x := range tags {
		d := x ^ tag
		acc &= d | -d
	}
	return acc>>63 != 0
}

// minWay returns the way holding the smallest packed recency stamp — the
// wide-LRU victim. Packed stamps are unique (the way index rides in the
// low bits), so plain < comparisons need no tie handling.
func minWay(use []uint64, wayBits uint) int {
	m := use[0]
	for _, x := range use[1:] {
		if x < m {
			m = x
		}
	}
	return int(m & (1<<wayBits - 1))
}

// SWAR byte constants for the age-vector operations.
const (
	lowBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
)

// invalidTag fills the tag slots of invalid ways (New, Flush). Lookup tags
// are addr >> (lineShift + setBits), so with at least one bit of total
// shift no lookup can produce it — which makes a plain tag comparison
// against an invalid way an automatic mismatch, no valid-mask needed. The
// 8-way fused path leans on this: its sign-AND miss test is exact for
// partial sets too, and its hit path never touches the valid lane.
const invalidTag = ^uint64(0)

// ageTouch ages the set's SWAR stack for a reference to way w: every way
// at least as recent as w grows one step older and w becomes age 0, the
// textbook LRU-stack update done byte-parallel. incMask/geMask restrict
// the update to the low assoc bytes so the unused bytes of narrow sets
// never accumulate (an unbounded stray byte would eventually poison the
// borrow-free byte comparison, which needs every byte below 0x80).
func ageTouch(ages uint64, w int, incMask, geMask uint64) uint64 {
	aw := ages >> (8 * uint(w)) & 0xff
	// Per-byte ages[i] <= aw, high bit of each byte: bytes stay below
	// 0x80, so the subtraction never borrows across byte boundaries.
	ge := ((aw*lowBytes | highBytes) - ages) & geMask
	ages += ge >> 7 & incMask
	return ages &^ (0xff << (8 * uint(w)))
}

// ageEvictWay finds the oldest way of a FULL narrow set: the unique byte
// equal to assoc-1 among the low assoc bytes. vict is assoc-1 broadcast
// over all bytes; geMask keeps stray high bytes out of the zero-byte
// scan. TrailingZeros takes the lowest flagged byte, which sidesteps the
// classic zero-byte-trick false positives (they only occur above a true
// zero byte).
func ageEvictWay(ages, vict, geMask uint64) int {
	x := ages ^ vict
	return bits.TrailingZeros64((x-lowBytes)&^x&geMask) >> 3
}

// ageInstall ages every way of the set one step and installs way w as the
// most recent — the fill/eviction update (the victim's byte, at age
// assoc-1, is overwritten with 0; everyone else shifts one step older).
func ageInstall(ages uint64, w int, incMask uint64) uint64 {
	return (ages + incMask) &^ (0xff << (8 * uint(w)))
}

// accessLRU8 is the fused LRU demand path specialized for 8-way sets
// (P4-L2, the default mini-simulator config). Invalid ways hold invalidTag
// (see above), so one sign-AND reduction over the tag lane — d|-d has its
// sign bit set exactly when d != 0, so ANDing the sign words leaves it set
// exactly when no way matched — resolves hit-vs-miss exactly for full and
// partial sets alike, and the valid lane is only consulted on a miss to
// pick fill-vs-evict. The SWAR bodies are spelled out inline: as functions
// they exceed the compiler's inlining budget, and the call overhead is
// measurable at this grain.
func (c *Cache) accessLRU8(addr uint64) AccessResult {
	c.clock++
	l := addr >> c.lineShift
	valid := c.valid
	ages := c.ages
	// One predictable guard stating the lane-size invariants New()
	// establishes lets the bounds-check-elimination pass drop every check
	// in the body (set <= len(valid)-1 via the mask below).
	if len(valid) == 0 || len(ages) < len(valid) {
		return AccessResult{}
	}
	set := l & uint64(len(valid)-1)
	tag := l >> c.setBits
	base := int(set) * 8
	t := (*[8]uint64)(c.tags[base:])
	d0 := t[0] ^ tag
	d1 := t[1] ^ tag
	d2 := t[2] ^ tag
	d3 := t[3] ^ tag
	d4 := t[4] ^ tag
	d5 := t[5] ^ tag
	d6 := t[6] ^ tag
	d7 := t[7] ^ tag
	acc := (d0 | -d0) & (d1 | -d1) & (d2 | -d2) & (d3 | -d3) &
		(d4 | -d4) & (d5 | -d5) & (d6 | -d6) & (d7 | -d7)
	ag := ages[set]
	if acc>>63 != 0 { // no way matched: miss
		c.stats.Misses++
		vm := valid[set]
		var w int
		if vm == 0xff { // full set: evict the age-7 way
			c.stats.Evictions++
			x := ag ^ 0x0707070707070707
			// &7 is free and tells the compiler w < 8 (TrailingZeros64 of
			// a zero word would read 64, though a full set has an age-7
			// byte).
			w = bits.TrailingZeros64((x-lowBytes)&^x&highBytes) >> 3 & 7
		} else { // fill the lowest invalid way
			w = bits.TrailingZeros64(^vm&0xff) & 7
			valid[set] = vm | 1<<uint(w)
		}
		t[w] = tag
		ages[set] = (ag + lowBytes) &^ (0xff << (8 * uint(w)))
		return AccessResult{}
	}
	m := isZero64(d0) | isZero64(d1)<<1 | isZero64(d2)<<2 | isZero64(d3)<<3 |
		isZero64(d4)<<4 | isZero64(d5)<<5 | isZero64(d6)<<6 | isZero64(d7)<<7
	w := bits.TrailingZeros64(m)
	aw := ag >> (8 * uint(w)) & 0xff
	ge := ((aw*lowBytes | highBytes) - ag) & highBytes
	ages[set] = (ag + ge>>7) &^ (0xff << (8 * uint(w)))
	return AccessResult{Hit: true}
}
