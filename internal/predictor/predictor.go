// Package predictor holds the LLC-presence baselines and the
// simulation-only table the paper compares ReDHiP against (Section II
// and Section IV): the counting-Bloom-filter scheme of Ghosh et al. at
// equal area budget, and the mirror table that stands in for a ReDHiP
// table recalibrated after every miss. Both must be conservative:
// PredictPresent may return true for an absent block (a false positive
// wastes lookups) but never false for a resident one. The simulator
// dispatches on their concrete types and charges their lookup cost
// itself; Base needs no predictor and the Oracle reads the LLC directly.
package predictor

import (
	"fmt"

	"redhip/internal/memaddr"
)

// CBF is the counting-Bloom-filter predictor of Ghosh et al. [9] given
// the same area budget as ReDHiP (Section IV): one xor-hash function
// and small saturating counters. At 4 bits per counter a 512 KB budget
// affords 2^20 entries — a quarter of ReDHiP's 2^22 1-bit entries,
// which is exactly the paper's "accuracy per bit" argument.
type CBF struct {
	counters []uint8
	idxBits  uint  //redhip:transient construction-time size config
	maxVal   uint8 //redhip:transient derived from ctrBits, rebuilt by NewCBF
	ctrBits  uint  //redhip:transient construction-time counter-width config

	lookups   uint64
	present   uint64
	saturated uint64 // counters stuck at max
	underflow uint64 // evictions of blocks whose counter was already 0
}

// NewCBF builds a counting Bloom filter within sizeBytes of storage
// using counterBits-wide counters (2..8). The entry count is the
// largest power of two that fits the budget.
func NewCBF(sizeBytes uint64, counterBits uint) (*CBF, error) {
	if counterBits < 2 || counterBits > 8 {
		return nil, fmt.Errorf("predictor: CBF counter width %d outside [2,8]", counterBits)
	}
	if sizeBytes == 0 {
		return nil, fmt.Errorf("predictor: CBF size must be positive")
	}
	rawEntries := sizeBytes * 8 / uint64(counterBits)
	if rawEntries == 0 {
		return nil, fmt.Errorf("predictor: CBF budget %d bytes too small for %d-bit counters", sizeBytes, counterBits)
	}
	idxBits := uint(0)
	for (uint64(1) << (idxBits + 1)) <= rawEntries {
		idxBits++
	}
	return &CBF{
		counters: make([]uint8, uint64(1)<<idxBits),
		idxBits:  idxBits,
		maxVal:   uint8(1<<counterBits - 1),
		ctrBits:  counterBits,
	}, nil
}

// Entries returns the number of counters.
func (c *CBF) Entries() uint64 { return uint64(len(c.counters)) }

// CounterBits returns the counter width.
func (c *CBF) CounterBits() uint { return c.ctrBits }

// Index computes the xor-hash of a block address: the address is split
// into idxBits-wide chunks that are xor-folded together (Section II's
// "xor-hash achieves higher accuracy than bits-hash"). Note this hash
// is exactly what makes CBF recalibration impractical: the blocks
// mapping to one entry are scattered across the whole cache.
func (c *CBF) Index(block memaddr.Addr) uint64 {
	x := uint64(block)
	mask := uint64(1)<<c.idxBits - 1
	var h uint64
	for x != 0 {
		h ^= x & mask
		x >>= c.idxBits
	}
	return h
}

// PredictPresent reports whether the block may be resident: present iff
// its counter is nonzero.
func (c *CBF) PredictPresent(b memaddr.Addr) bool {
	c.lookups++
	if c.counters[c.Index(b)] != 0 {
		c.present++
		return true
	}
	return false
}

// OnFill notes a block inserted into the covered cache: it increments
// the block's counter, saturating at
// the maximum. A saturated counter is disabled — it never decrements
// again, so it conservatively reads "present" forever (Section II).
func (c *CBF) OnFill(b memaddr.Addr) {
	ctr := &c.counters[c.Index(b)]
	if *ctr == c.maxVal {
		return // already saturated/disabled
	}
	*ctr++
	if *ctr == c.maxVal {
		c.saturated++
	}
}

// OnEvict notes a block evicted from the covered cache: it decrements
// the counter unless it is saturated (disabled) or already zero.
func (c *CBF) OnEvict(b memaddr.Addr) {
	ctr := &c.counters[c.Index(b)]
	switch *ctr {
	case c.maxVal:
		// disabled
	case 0:
		c.underflow++
	default:
		*ctr--
	}
}

// SnapshotState copies out the filter's counters and lifetime stats
// for warm-state serialisation.
func (c *CBF) SnapshotState() (counters []uint8, stats [4]uint64) {
	counters = append([]uint8(nil), c.counters...)
	stats = [4]uint64{c.lookups, c.present, c.saturated, c.underflow}
	return counters, stats
}

// RestoreSnapshotState overwrites the filter's counters and stats with
// a previously-snapshotted state. The counter count must match this
// filter's geometry exactly.
func (c *CBF) RestoreSnapshotState(counters []uint8, stats [4]uint64) error {
	if len(counters) != len(c.counters) {
		return fmt.Errorf("predictor: snapshot has %d CBF counters, filter needs %d", len(counters), len(c.counters))
	}
	copy(c.counters, counters)
	c.lookups, c.present, c.saturated, c.underflow = stats[0], stats[1], stats[2], stats[3]
	return nil
}

// CBFStats reports the filter's internal counters.
type CBFStats struct {
	Lookups          uint64
	PredictedPresent uint64
	Saturated        uint64
	Underflows       uint64
}

// Stats returns a snapshot of the filter's counters.
func (c *CBF) Stats() CBFStats {
	return CBFStats{
		Lookups:          c.lookups,
		PredictedPresent: c.present,
		Saturated:        c.saturated,
		Underflows:       c.underflow,
	}
}
