// Package core implements the paper's contribution: the ReDHiP
// prediction table (Section III). The table is a direct-mapped bit map
// over the hashed block address — one bit per entry, no counters, no
// associativity — indexed by the "bits-hash": the lowest p bits of the
// address after the block offset (Figure 3). A set bit means "the block
// may be in the LLC"; a clear bit means "the block is definitely not in
// any cache" (given an inclusive LLC), so the whole hierarchy below L1
// can be skipped.
//
// Bits are set when blocks are filled into the LLC and never cleared on
// eviction; instead the table is periodically *recalibrated* — rebuilt
// from the LLC tag array. Because the LLC set index is a suffix of the
// PT index whenever p >= k, all the blocks that map onto one 64-bit PT
// line live in the same LLC set, so one line is recomputed from one
// set's 16 tags with a 6-bit decoder per tag and an OR tree, in a
// single cycle (Figure 4); banking recalibrates several sets per cycle
// (Figure 5).
package core

import (
	"fmt"
	"math/bits"

	"redhip/internal/memaddr"
	"redhip/internal/redhipassert"
)

// LineBits is the width of one prediction-table line. A 64-bit line
// matches one 16-way LLC set when p-k = 6 (Table I's base design).
const LineBits = 64

// HashKind selects the table's index hash.
type HashKind int

const (
	// HashBits is the paper's bits-hash: the lowest p bits of the block
	// address. It is what makes one-cycle-per-set recalibration
	// possible, because the LLC set index is a suffix of the PT index.
	HashBits HashKind = iota
	// HashXor folds the block address into p bits by xor, like the CBF
	// baseline. Slightly more accurate per lookup, but the blocks
	// mapping to one entry scatter across the whole cache, so
	// recalibration degrades to a serial one-tag-per-cycle sweep
	// (Section III-B: "several million cycles"). Provided for the
	// ablation study of the paper's central design trade-off.
	HashXor
)

// String names the hash.
func (h HashKind) String() string {
	switch h {
	case HashBits:
		return "bits-hash"
	case HashXor:
		return "xor-hash"
	}
	return fmt.Sprintf("HashKind(%d)", int(h))
}

// Table is the ReDHiP prediction table.
type Table struct {
	words []uint64
	pBits uint     //redhip:transient geometry-derived index width, fixed by NewTableHash
	banks int      //redhip:transient construction config, fixed by NewTableHash
	mask  uint64   //redhip:transient derived from the entry count, rebuilt by NewTableHash
	hash  HashKind //redhip:transient construction config, fixed by NewTableHash

	// Counters for diagnostics and the evaluation.
	lookups  uint64
	predHits uint64 // predicted present
	sets     uint64 // Set() calls that flipped a bit 0->1
	recals   uint64

	recalBuf []uint64 //redhip:transient reusable tag scratch so Recalibrate stays allocation-free
}

// NewTable builds a prediction table of the given size in bytes, which
// must be a power of two. banks is the recalibration parallelism
// (Section IV uses 4: "the prediction table is split into 4 banks so
// that 4 sets can be recalibrated at the same time").
func NewTable(sizeBytes uint64, banks int) (*Table, error) {
	return NewTableHash(sizeBytes, banks, HashBits)
}

// NewTableHash builds a prediction table with an explicit hash kind.
// HashBits is the paper's design; HashXor exists for the ablation of
// the accuracy/recalibrability trade-off.
func NewTableHash(sizeBytes uint64, banks int, hash HashKind) (*Table, error) {
	if hash != HashBits && hash != HashXor {
		return nil, fmt.Errorf("core: unknown hash kind %d", int(hash))
	}
	if banks <= 0 {
		return nil, fmt.Errorf("core: banks must be positive, got %d", banks)
	}
	if sizeBytes < LineBits/8 {
		return nil, fmt.Errorf("core: table size %d smaller than one %d-bit line", sizeBytes, LineBits)
	}
	entries := sizeBytes * 8
	pBits, err := memaddr.CheckedLog2("prediction table entries", entries)
	if err != nil {
		return nil, err
	}
	return &Table{
		words: make([]uint64, entries/LineBits),
		pBits: pBits,
		banks: banks,
		mask:  entries - 1,
		hash:  hash,
	}, nil
}

// NewForCache builds a table at the paper's fixed 0.78% (= 1/128)
// storage-overhead ratio of the covered cache: a 64 MB LLC gets the
// 512 KB base table; in exclusive mode every level gets a table at the
// same ratio (Section III-C).
func NewForCache(cacheSizeBytes uint64, banks int) (*Table, error) {
	return NewTable(cacheSizeBytes/128, banks)
}

// PBits returns the index width p (22 for the 512 KB base design).
func (t *Table) PBits() uint { return t.pBits }

// SizeBytes returns the table capacity in bytes.
func (t *Table) SizeBytes() uint64 { return uint64(len(t.words)) * LineBits / 8 }

// Banks returns the recalibration banking factor.
func (t *Table) Banks() int { return t.banks }

// Hash returns the table's hash kind.
func (t *Table) Hash() HashKind { return t.hash }

// Index computes the table index of a block address: the bits-hash
// (lowest p bits) by default, or the xor-fold of all p-bit chunks for
// HashXor tables.
//
//redhip:hotpath
func (t *Table) Index(block memaddr.Addr) uint64 {
	if t.hash == HashBits {
		return uint64(block) & t.mask
	}
	x := uint64(block)
	var h uint64
	for x != 0 {
		h ^= x & t.mask
		x >>= t.pBits
	}
	return h
}

// PredictPresent returns the prediction for a block address: true means
// "may be in the LLC" (access the hierarchy as usual), false means
// "definitely absent" (skip every level below L1).
//
//redhip:hotpath
func (t *Table) PredictPresent(block memaddr.Addr) bool {
	t.lookups++
	idx := t.Index(block)
	if redhipassert.Enabled {
		redhipassert.Check(idx <= t.mask, "core: prediction-table index out of range")
	}
	present := t.words[idx/LineBits]&(1<<(idx%LineBits)) != 0
	if present {
		t.predHits++
	}
	return present
}

// Set marks a block's entry, called when the block is filled into the
// LLC. Evictions do not clear bits (Section III-A: "A bit is set to one
// when an entry is added, but it is not updated to reflect eviction").
//
//redhip:hotpath
func (t *Table) Set(block memaddr.Addr) {
	idx := t.Index(block)
	w := &t.words[idx/LineBits]
	bit := uint64(1) << (idx % LineBits)
	if *w&bit == 0 {
		t.sets++
	}
	*w |= bit
	if redhipassert.Enabled {
		redhipassert.Check(t.words[idx/LineBits]&bit != 0, "core: bit not visible after Set")
	}
}

// Clear zeroes the whole table (used by tests and as the reset at the
// start of each recalibration sweep).
func (t *Table) Clear() {
	for i := range t.words {
		t.words[i] = 0
	}
	if redhipassert.Enabled {
		redhipassert.Check(t.PopCount() == 0, "core: bits survived a Clear")
	}
}

// PopCount returns the number of set bits.
func (t *Table) PopCount() uint64 {
	var n uint64
	for _, w := range t.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Stats reports the table's counters.
type Stats struct {
	Lookups          uint64
	PredictedPresent uint64
	PredictedAbsent  uint64
	BitsSet          uint64 // 0->1 transitions via Set
	Recalibrations   uint64
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	return Stats{
		Lookups:          t.lookups,
		PredictedPresent: t.predHits,
		PredictedAbsent:  t.lookups - t.predHits,
		BitsSet:          t.sets,
		Recalibrations:   t.recals,
	}
}

// SnapshotState copies out the table's warm state: the bit-map words
// and the lifetime counters (the counters matter because recalibration
// cadence and PredStats derive from their absolute values).
func (t *Table) SnapshotState() (words []uint64, counters [4]uint64) {
	words = append([]uint64(nil), t.words...)
	counters = [4]uint64{t.lookups, t.predHits, t.sets, t.recals}
	return words, counters
}

// RestoreSnapshotState overwrites the table's words and counters with a
// previously-snapshotted state. The word count must match this table's
// size exactly.
func (t *Table) RestoreSnapshotState(words []uint64, counters [4]uint64) error {
	if len(words) != len(t.words) {
		return fmt.Errorf("core: snapshot has %d table words, table needs %d", len(words), len(t.words))
	}
	copy(t.words, words)
	t.lookups, t.predHits, t.sets, t.recals = counters[0], counters[1], counters[2], counters[3]
	if redhipassert.Enabled {
		redhipassert.Check(t.predHits <= t.lookups, "core: restored counters inconsistent (predHits > lookups)")
	}
	return nil
}

// TagArray is the view of the covered cache's tag array that the
// recalibration hardware reads: the per-set valid tags. *cache.Cache
// implements it.
type TagArray interface {
	NumSets() int
	SetBits() uint
	TagsInSet(set int, buf []uint64) []uint64
}

// RecalCost is the latency and energy of one full recalibration.
type RecalCost struct {
	// Cycles the machine stalls: ceil(sets/banks), one set per bank per
	// cycle (Section IV: 65536 sets / 4 banks = 16K cycles).
	Cycles uint64
	// EnergyNJ spent reading the tag array and rewriting the table.
	EnergyNJ float64
}

// Recalibrate rebuilds the table from the covered cache's tag array so
// it reflects exactly the current contents (false positives accumulated
// since the last rebuild are flushed; false negatives remain impossible
// because the rebuild happens atomically with respect to fills in the
// simulator). tagReadNJ is charged once per set swept; lineWriteNJ once
// per table word rewritten.
func (t *Table) Recalibrate(tags TagArray, tagReadNJ, lineWriteNJ float64) RecalCost {
	t.Clear()
	k := tags.SetBits()
	sets := tags.NumSets()
	if cap(t.recalBuf) == 0 {
		t.recalBuf = make([]uint64, 0, 32)
	}
	buf := t.recalBuf
	var totalTags uint64
	for s := 0; s < sets; s++ {
		buf = tags.TagsInSet(s, buf[:0])
		totalTags += uint64(len(buf))
		for _, tag := range buf {
			block := memaddr.BlockFromSetTag(uint64(s), tag, k)
			idx := t.Index(block)
			t.words[idx/LineBits] |= 1 << (idx % LineBits)
		}
	}
	t.recalBuf = buf[:0]
	t.recals++
	if redhipassert.Enabled {
		// A freshly rebuilt table reflects the tag array exactly: every
		// false positive accumulated since the last rebuild is gone.
		redhipassert.Check(t.FalsePositiveCount(tags) == 0, "core: false positives survived recalibration")
	}
	cost := RecalCost{
		EnergyNJ: float64(sets)*tagReadNJ + float64(len(t.words))*lineWriteNJ,
	}
	if t.hash == HashBits {
		// One set per bank per cycle: the 6-bit decoders + OR tree of
		// Figure 4 finish a whole set in one cycle.
		cost.Cycles = (uint64(sets) + uint64(t.banks) - 1) / uint64(t.banks)
	} else {
		// xor-hashed entries scatter: each tag must be read, hashed and
		// written back individually (Section III-B's "several million
		// cycles" scenario).
		cost.Cycles = totalTags
	}
	return cost
}

// FalsePositiveCount compares the table against the true cache contents
// and returns how many set bits have no resident block mapping to them.
// Used by tests and the accuracy diagnostics; not part of the hardware.
func (t *Table) FalsePositiveCount(tags TagArray) uint64 {
	truth := make([]uint64, len(t.words))
	k := tags.SetBits()
	buf := make([]uint64, 0, 32)
	for s := 0; s < tags.NumSets(); s++ {
		buf = tags.TagsInSet(s, buf[:0])
		for _, tag := range buf {
			block := memaddr.BlockFromSetTag(uint64(s), tag, k)
			idx := t.Index(block)
			truth[idx/LineBits] |= 1 << (idx % LineBits)
		}
	}
	var fp uint64
	for i, w := range t.words {
		fp += uint64(bits.OnesCount64(w &^ truth[i]))
	}
	return fp
}
