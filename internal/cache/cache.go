// Package cache implements the set-associative caches of the simulated
// hierarchy: lookup, fill, eviction, invalidation and LRU replacement,
// plus the tag-array iteration the ReDHiP recalibration hardware needs
// (the prediction table is rebuilt from the LLC tag array, one set per
// cycle per bank — paper Section III-B, Figures 4 and 5).
package cache

import (
	"fmt"
	"math/bits"

	"redhip/internal/memaddr"
	"redhip/internal/redhipassert"
)

// ReplacementPolicy selects the victim-choice policy of a cache.
type ReplacementPolicy int

// The supported replacement policies. The paper's configuration uses
// LRU; FIFO and Random exist for the ablation study of how much the
// predictor's behaviour depends on the replacement policy.
const (
	// LRU evicts the least-recently-used way (default).
	LRU ReplacementPolicy = iota
	// FIFO evicts the oldest-inserted way regardless of use.
	FIFO
	// Random evicts a pseudo-randomly chosen way (deterministic
	// per-cache xorshift stream).
	Random
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
}

// Geometry describes one cache level. All sizes must be powers of two.
type Geometry struct {
	Name      string
	SizeBytes uint64
	Ways      int
	Banks     int
	// Replacement selects the victim policy; the zero value is LRU.
	Replacement ReplacementPolicy
}

// MaxWays is the highest supported associativity. The recency order of
// a set is packed into one uint64 (4 bits per way), which caps ways at
// 16 — comfortably above the 16-way LLCs the paper configures.
const MaxWays = 16

// Validate checks the geometry and returns the derived set count bits.
func (g Geometry) Validate() (setBits uint, err error) {
	if g.Ways <= 0 {
		return 0, fmt.Errorf("cache %s: ways must be positive, got %d", g.Name, g.Ways)
	}
	if g.Ways > MaxWays {
		return 0, fmt.Errorf("cache %s: ways %d exceeds the supported maximum %d", g.Name, g.Ways, MaxWays)
	}
	if g.Banks <= 0 {
		return 0, fmt.Errorf("cache %s: banks must be positive, got %d", g.Name, g.Banks)
	}
	if g.SizeBytes == 0 || g.SizeBytes%(uint64(g.Ways)*memaddr.BlockSize) != 0 {
		return 0, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d-byte blocks",
			g.Name, g.SizeBytes, g.Ways, memaddr.BlockSize)
	}
	if g.Replacement < LRU || g.Replacement > Random {
		return 0, fmt.Errorf("cache %s: unknown replacement policy %d", g.Name, int(g.Replacement))
	}
	sets := g.SizeBytes / (uint64(g.Ways) * memaddr.BlockSize)
	setBits, err = memaddr.CheckedLog2(g.Name+" sets", sets)
	if err != nil {
		return 0, err
	}
	return setBits, nil
}

// Stats counts the events observed by one cache.
type Stats struct {
	Lookups     uint64 // demand lookups performed
	Hits        uint64
	Misses      uint64
	Fills       uint64 // blocks inserted
	Evictions   uint64 // valid blocks displaced by fills
	Invalidates uint64 // blocks removed by back-invalidation / promotion
}

// HitRate returns Hits/Lookups, or 0 when the cache was never looked up.
func (s *Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Way entries are packed as (tag<<1)|valid in a single uint64 so the
// hot way-scan of Lookup/Contains/Fill touches 8 bytes per way instead
// of a 24-byte struct. Block addresses are byte addresses with the
// 6-bit offset removed, so tags carry at most 58 significant bits and
// the shift never overflows.
//
// Recency is one packed uint64 per set instead of a timestamp per way:
// nibble k of ord[s] holds the way id at recency rank k (rank 0 = most
// recent). A hit rotates the hit way to rank 0 with a handful of
// register ops, and the replacement victim is read straight out of the
// last occupied nibble — no per-way timestamp loads, no O(ways) victim
// scan, and a set's whole recency state costs 8 bytes of cache
// footprint instead of 8*ways.

// ordIdent is the identity recency order: nibble k holds way k. Unused
// high nibbles (ways < 16) never match a real way id, so they stay
// inert above the occupied ranks.
const ordIdent = 0xFEDCBA9876543210

// Cache is one set-associative cache level. It stores tags only — the
// simulator never needs data contents. Not safe for concurrent use.
type Cache struct {
	geo     Geometry
	setBits uint     //redhip:transient geometry-derived, rebuilt by New
	setMask uint64   //redhip:transient (1<<setBits)-1, hoisted out of the per-access path, rebuilt by New
	nways   uint64   //redhip:transient geometry-derived, rebuilt by New
	tagv    []uint64 // sets*ways, row-major by set: (tag<<1)|valid
	ord     []uint64 // per-set packed recency order, 4 bits per way
	lru     bool     //redhip:transient Replacement == LRU, hoisted out of Lookup, rebuilt by New
	fifo    bool     //redhip:transient Replacement == FIFO, rebuilt by New
	stats   Stats    //redhip:transient measurement counters, deliberately reset at the snapshot boundary
	rng     uint64   // xorshift state for Random replacement
}

// New builds a cache from its geometry.
func New(g Geometry) (*Cache, error) {
	setBits, err := g.Validate()
	if err != nil {
		return nil, err
	}
	sets := uint64(1) << setBits
	c := &Cache{
		geo:     g,
		setBits: setBits,
		setMask: sets - 1,
		tagv:    make([]uint64, sets*uint64(g.Ways)),
		ord:     make([]uint64, sets),
		nways:   uint64(g.Ways),
		lru:     g.Replacement == LRU,
		fifo:    g.Replacement == FIFO,
		rng:     0x9e3779b97f4a7c15,
	}
	for i := range c.ord {
		c.ord[i] = ordIdent
	}
	return c, nil
}

// orderIsPermutation reports whether set si's packed recency word still
// holds a permutation of the 16 way ids — the structural invariant the
// SWAR rotation in promote must preserve. Unused high nibbles (ways <
// 16) keep their identity values, so a valid word always covers all 16.
// Only redhipassert-tagged builds call this.
func (c *Cache) orderIsPermutation(si uint64) bool {
	var seen uint64
	o := c.ord[si]
	for i := 0; i < MaxWays; i++ {
		seen |= 1 << (o & 15)
		o >>= 4
	}
	return seen == 0xFFFF
}

// promote rotates way to the most-recent rank of set si's recency
// word. The way's current rank is located with a SWAR zero-nibble
// scan: borrows in the subtraction only propagate above the lowest
// zero nibble, so the lowest marker bit is exact, and way ids are
// unique within a set, so the zero nibble is unique too. A way already
// at rank 0 needs no special case: sh is 0, low is empty, and the
// rotation rewrites nibble 0 with the way it already holds, so there
// is no early-out branch to mispredict.
//
//redhip:hotpath
func (c *Cache) promote(si, way uint64) {
	o := c.ord[si]
	x := o ^ (way * 0x1111111111111111)
	sh := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) - 3
	low := o & (uint64(1)<<sh - 1)
	c.ord[si] = o&^(uint64(1)<<(sh+4)-1) | low<<4 | way
}

// tagsUnique reports whether set si holds each valid tag at most once.
// The branch-free way scans rely on it: they keep the last matching
// way, which is the match only when there is no second one. Only
// redhipassert-tagged builds call this.
func (c *Cache) tagsUnique(si uint64) bool {
	set := c.tagv[si*c.nways : (si+1)*c.nways]
	for i, v := range set {
		if v&1 == 0 {
			continue
		}
		for _, w := range set[i+1:] {
			if w == v {
				return false
			}
		}
	}
	return true
}

// Geometry returns the construction parameters.
func (c *Cache) Geometry() Geometry { return c.geo }

// SetBits returns log2 of the set count (the paper's k).
func (c *Cache) SetBits() uint { return c.setBits }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return 1 << c.setBits }

// Ways returns the associativity.
func (c *Cache) Ways() int { return int(c.nways) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the event counters but not the contents.
//
//redhip:allow noassert -- stats-only mutation, no structural state
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Lookup probes for a block address, updating LRU and hit/miss
// counters. It returns true on a hit.
//
// Every tag-matching way scan in this file reads all ways and keeps
// the matching way with a conditional move instead of leaving the loop
// on a match: which way matches depends on the data, so an early exit
// mispredicts on most hits, while the single hit/miss branch after the
// scan predicts well. A set holds each tag at most once (tagsUnique), so
// the last match is the only match.
//
//redhip:hotpath
func (c *Cache) Lookup(block memaddr.Addr) bool {
	c.stats.Lookups++
	want := uint64(block)>>c.setBits<<1 | 1
	si := uint64(block) & c.setMask
	base := si * c.nways
	set := c.tagv[base : base+c.nways : base+c.nways]
	way := -1
	for i := range set {
		if set[i] == want {
			way = i
		}
	}
	if way < 0 {
		c.stats.Misses++
		return false
	}
	if c.lru {
		c.promote(si, uint64(way))
		if redhipassert.Enabled {
			redhipassert.Check(c.orderIsPermutation(si), "cache: recency order corrupted by promote on hit")
		}
	}
	c.stats.Hits++
	return true
}

// Contains probes for a block without touching LRU state or counters.
// The Oracle predictor uses it to read LLC presence for free.
//
//redhip:hotpath
func (c *Cache) Contains(block memaddr.Addr) bool {
	want := uint64(block)>>c.setBits<<1 | 1
	base := (uint64(block) & c.setMask) * c.nways
	set := c.tagv[base : base+c.nways : base+c.nways]
	way := -1
	for i := range set {
		if set[i] == want {
			way = i
		}
	}
	return way >= 0
}

// Fill inserts a block, evicting the LRU way if the set is full. It
// returns the evicted block address when a valid block was displaced.
// Filling a block that is already present refreshes its LRU recency
// instead of duplicating it.
//
// One reverse scan with no early exit finds both the way holding the
// block, if any, and the lowest-index invalid way: scanning from the
// top, the last invalid way seen is the first by index. Victim choice
// is deliberately order-sensitive (first invalid way by index, else
// the least-recent occupied rank) because the golden determinism tests
// pin its exact behaviour.
//
//redhip:hotpath
func (c *Cache) Fill(block memaddr.Addr) (evicted memaddr.Addr, wasEvicted bool) {
	want := uint64(block)>>c.setBits<<1 | 1
	si := uint64(block) & c.setMask
	base := si * c.nways
	set := c.tagv[base : base+c.nways : base+c.nways]
	hit, invalid := -1, -1
	for i := len(set) - 1; i >= 0; i-- {
		v := set[i]
		if v == want {
			hit = i
		}
		if v&1 == 0 {
			invalid = i
		}
	}
	if hit >= 0 {
		if c.lru {
			c.promote(si, uint64(hit)) // refresh recency; FIFO keeps insertion order
		}
		return 0, false
	}
	victim := invalid
	if victim == -1 {
		if c.geo.Replacement == Random {
			// All ways valid: deterministic pseudo-random pick.
			x := c.rng
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			c.rng = x
			victim = int((x * 0x2545f4914f6cdd1d) % c.nways)
		} else {
			// LRU and FIFO both evict the last occupied rank: every
			// insertion promotes to rank 0, and LRU additionally
			// promotes on hits, so the last rank is the lowest stamp
			// either way.
			victim = int(c.ord[si] >> (4 * (c.nways - 1)) & 15)
		}
	}
	c.stats.Fills++
	if v := set[victim]; v&1 != 0 {
		c.stats.Evictions++
		evicted = memaddr.BlockFromSetTag(si, v>>1, c.setBits)
		wasEvicted = true
	}
	set[victim] = want
	if c.lru || c.fifo {
		c.promote(si, uint64(victim))
	}
	if redhipassert.Enabled {
		redhipassert.Check(c.orderIsPermutation(si), "cache: recency order corrupted by fill")
		redhipassert.Check(c.tagsUnique(si), "cache: fill left a tag twice in one set")
		redhipassert.Check(c.Contains(block), "cache: fill did not make the block resident")
	}
	return evicted, wasEvicted
}

// Invalidate removes a block if present, returning whether it was.
// Used for inclusion back-invalidation and for exclusive promotion.
//
//redhip:hotpath
func (c *Cache) Invalidate(block memaddr.Addr) bool {
	want := uint64(block)>>c.setBits<<1 | 1
	base := (uint64(block) & c.setMask) * c.nways
	set := c.tagv[base : base+c.nways : base+c.nways]
	way := -1
	for i := range set {
		if set[i] == want {
			way = i
		}
	}
	if way < 0 {
		return false
	}
	set[way] = 0
	c.stats.Invalidates++
	if redhipassert.Enabled {
		redhipassert.Check(!c.Contains(block), "cache: block still resident after invalidate")
	}
	return true
}

// ValidBlocks returns the number of valid blocks currently resident.
func (c *Cache) ValidBlocks() int {
	n := 0
	for _, v := range c.tagv {
		if v&1 != 0 {
			n++
		}
	}
	return n
}

// TagsInSet appends the tags of the valid blocks in one set to buf and
// returns it. The recalibration hardware reads the LLC tag array this
// way, one set at a time (paper Figure 4).
func (c *Cache) TagsInSet(set int, buf []uint64) []uint64 {
	start := uint64(set) * c.nways
	for _, v := range c.tagv[start : start+c.nways] {
		if v&1 != 0 {
			buf = append(buf, v>>1)
		}
	}
	return buf
}

// ForEachBlock calls fn for every valid resident block address. Used by
// tests and by predictor cross-checks.
func (c *Cache) ForEachBlock(fn func(block memaddr.Addr)) {
	for s := 0; s < c.NumSets(); s++ {
		start := uint64(s) * c.nways
		for _, v := range c.tagv[start : start+c.nways] {
			if v&1 != 0 {
				fn(memaddr.BlockFromSetTag(uint64(s), v>>1, c.setBits))
			}
		}
	}
}

// SnapshotState copies out the cache's warm contents: the packed
// tag/valid words, the per-set recency words, and the replacement RNG
// cursor. Stats are not captured — snapshotting happens at the
// warmup/measure boundary, where the engine zeroes them anyway.
func (c *Cache) SnapshotState() (tagv, ord []uint64, rng uint64) {
	tagv = append([]uint64(nil), c.tagv...)
	ord = append([]uint64(nil), c.ord...)
	return tagv, ord, c.rng
}

// RestoreSnapshotState overwrites the cache's contents with a
// previously-snapshotted state. Slice lengths must match this cache's
// geometry exactly; under redhipassert every restored recency word is
// re-validated as a way permutation.
func (c *Cache) RestoreSnapshotState(tagv, ord []uint64, rng uint64) error {
	if len(tagv) != len(c.tagv) {
		return fmt.Errorf("cache %s: snapshot has %d tag words, geometry needs %d", c.geo.Name, len(tagv), len(c.tagv))
	}
	if len(ord) != len(c.ord) {
		return fmt.Errorf("cache %s: snapshot has %d order words, geometry needs %d", c.geo.Name, len(ord), len(c.ord))
	}
	copy(c.tagv, tagv)
	copy(c.ord, ord)
	c.rng = rng
	if redhipassert.Enabled {
		for si := range c.ord {
			redhipassert.Check(c.orderIsPermutation(uint64(si)), "cache: restored recency order is not a permutation")
			redhipassert.Check(c.tagsUnique(uint64(si)), "cache: restored set holds a tag twice")
		}
	}
	return nil
}

// Flush invalidates the entire cache contents (counters are kept).
func (c *Cache) Flush() {
	for i := range c.tagv {
		c.tagv[i] = 0
	}
	if redhipassert.Enabled {
		redhipassert.Check(c.ValidBlocks() == 0, "cache: blocks survived a flush")
	}
}
