package sim

import "redhip/internal/memaddr"

// pfFilterBits sizes the slot space of the prefetched-block filter:
// 2^20 slots, the same bound the old map-based tracker capped itself at.
const pfFilterBits = 20

// pfFilterMinBits sizes a new filter's table: 8 entries, 64 bytes.
const pfFilterMinBits = 3

// pfSlot hashes a block address into the prefetched filter. Fibonacci
// hashing scatters the region-base structure of the synthetic address
// spaces, which a plain low-bits index would alias heavily.
func pfSlot(block memaddr.Addr) uint64 {
	return (uint64(block) * 0x9e3779b97f4a7c15) >> (64 - pfFilterBits)
}

// pfFilter holds the marks of prefetched blocks no demand access has hit
// yet: at most one mark (block+1) per pfSlot, a newer mark replacing an
// older one in the same slot. It stores only the occupied slots, in an
// open-addressed table of marks (0 = empty) that starts at
// 2^pfFilterMinBits entries and doubles at half load. A mark's slot is
// recomputed from the mark, so the table keeps no keys; its home is the
// slot masked to the table size, with linear probing and backward-shift
// deletion. At the top size of 2^pfFilterBits entries every slot is its
// own home, so the table is then a direct-mapped array over the slots
// and never probes past a home.
type pfFilter struct {
	marks []uint64
	live  int // occupied entries
}

func newPFFilter() pfFilter {
	return pfFilter{marks: make([]uint64, 1<<pfFilterMinBits)}
}

// markSlot is the pfSlot of the block a nonzero mark records.
func markSlot(mark uint64) uint64 {
	return pfSlot(memaddr.Addr(mark - 1))
}

// find returns the table index holding slot s's mark and true, or the
// empty index that ends s's probe and false.
func (f *pfFilter) find(s uint64) (int, bool) {
	mask := uint64(len(f.marks) - 1)
	for i := s & mask; ; i = (i + 1) & mask {
		m := f.marks[i]
		if m == 0 {
			return int(i), false
		}
		if markSlot(m) == s {
			return int(i), true
		}
	}
}

// note records block as prefetched, replacing any older mark in its slot.
func (f *pfFilter) note(block memaddr.Addr) {
	s := pfSlot(block)
	i, ok := f.find(s)
	if !ok {
		if 2*(f.live+1) > len(f.marks) && len(f.marks) < 1<<pfFilterBits {
			f.grow()
			i, _ = f.find(s)
		}
		f.live++
	}
	f.marks[i] = uint64(block) + 1
}

// hit clears block's mark and reports whether it was there. A different
// block's mark in the same slot stays.
func (f *pfFilter) hit(block memaddr.Addr) bool {
	i, ok := f.find(pfSlot(block))
	if !ok || f.marks[i] != uint64(block)+1 {
		return false
	}
	f.remove(i)
	return true
}

// remove empties index i and shifts the rest of its probe run back, so
// every entry stays reachable from its home without tombstones. At the
// top size every entry sits at its home, so nothing shifts, and the scan
// is skipped: a full top-size table has no empty entry to end it.
func (f *pfFilter) remove(i int) {
	f.live--
	mask := uint64(len(f.marks) - 1)
	if len(f.marks) == 1<<pfFilterBits {
		f.marks[i] = 0
		return
	}
	hole := uint64(i)
	for j := (hole + 1) & mask; f.marks[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole when the hole lies between
		// its home and j, cyclically.
		if (j-markSlot(f.marks[j]))&mask >= (j-hole)&mask {
			f.marks[hole] = f.marks[j]
			hole = j
		}
	}
	f.marks[hole] = 0
}

// grow doubles the table and re-inserts every mark.
func (f *pfFilter) grow() {
	old := f.marks
	f.marks = make([]uint64, 2*len(old))
	mask := uint64(len(f.marks) - 1)
	for _, m := range old {
		if m == 0 {
			continue
		}
		i := markSlot(m) & mask
		for f.marks[i] != 0 {
			i = (i + 1) & mask
		}
		f.marks[i] = m
	}
}
