package sim

import (
	"math/rand"
	"slices"
	"testing"

	"redhip/internal/memaddr"
)

// pfHashInverse is the multiplicative inverse of pfSlot's odd Fibonacci
// constant modulo 2^64, by Newton's iteration (each step doubles the
// correct low bits, from 3).
var pfHashInverse = func() uint64 {
	const k = 0x9e3779b97f4a7c15
	inv := uint64(k)
	for range 5 {
		inv *= 2 - k*inv
	}
	return inv
}()

// pfBlock returns a block whose pfSlot is slot; low (below 2^44) tells
// the blocks of one slot apart.
func pfBlock(slot, low uint64) memaddr.Addr {
	return memaddr.Addr((slot<<(64-pfFilterBits) | low) * pfHashInverse)
}

// pfReference is the dense filter the sparse table replaced: one mark
// per slot, exactly the old engine's notePrefetched and markUseful.
type pfReference struct {
	marks  []uint64
	live   int
	useful uint64
}

func (r *pfReference) note(block memaddr.Addr) {
	s := pfSlot(block)
	if r.marks[s] == 0 {
		r.live++
	}
	r.marks[s] = uint64(block) + 1
}

func (r *pfReference) markUseful(block memaddr.Addr) {
	if r.live == 0 {
		return
	}
	if s := pfSlot(block); r.marks[s] == uint64(block)+1 {
		r.marks[s] = 0
		r.live--
		r.useful++
	}
}

// pfFuzzOps caps the ops one FuzzPrefetchFilter input runs: each op
// re-checks every slot touched so far.
const pfFuzzOps = 256

// pfNarrowSlots share home indices in tables of up to 64 entries (5,
// 69, 133 and 5+2^19 all home at 5; 0xfffff and 0xfffbf home at the
// last entry, so their run wraps to 0), so probe runs form, wrap and
// shift back on deletion.
var pfNarrowSlots = []uint64{5, 5 + 64, 5 + 128, 5 + 1<<19, 6, 0xfffff, 0xfffff - 64, 0}

// checkPFFilterShape checks that every mark of f is found from its home
// and that a table below the top size is at most half full.
func checkPFFilterShape(t *testing.T, f *pfFilter) {
	t.Helper()
	if len(f.marks) < 1<<pfFilterBits && 2*f.live > len(f.marks) {
		t.Fatalf("%d marks in a %d-entry table, over half load", f.live, len(f.marks))
	}
	n := 0
	for i, m := range f.marks {
		if m == 0 {
			continue
		}
		n++
		if j, ok := f.find(markSlot(m)); !ok || j != i {
			t.Fatalf("mark %#x at index %d: find gives %d, %v", m, i, j, ok)
		}
	}
	if n != f.live {
		t.Fatalf("table holds %d marks, live count %d", n, f.live)
	}
}

// FuzzPrefetchFilter checks the engine's sparse prefetched-block filter
// against the dense 2^20-slot filter it replaced. With top set, the run
// starts from a filter holding 2^19 even slots, which grew its table to
// the top size of 2^20 entries; there every mark must sit at its home.
// Each 4-byte op (at most pfFuzzOps of them) is
//
//	byte 0: bit 0 picks note (0) or markUseful (1); bit 1 picks a
//	        wide slot spread over the slot space (1) or one of
//	        pfNarrowSlots (0); bits 4-7 are the wide slot's low bits
//	byte 1: the wide slot's top byte, or the narrow slot's index
//	byte 2: the wide slot's middle byte
//	byte 3: which of 4 blocks in the slot
//
// The ops make the calls the walks make: the filter's note and the
// engine's markUseful. After every op the marks of every touched slot,
// the Useful count and the occupancy must equal the reference's.
func FuzzPrefetchFilter(f *testing.F) {
	f.Add(false, []byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Add(false, []byte{0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{40, 400, pfFuzzOps} {
		ops := make([]byte, 4*n)
		rng.Read(ops)
		f.Add(false, ops)
	}
	ops := make([]byte, 4*400)
	rng.Read(ops)
	f.Add(true, ops)

	// Each reference is allocated once. A top run works in place on a
	// top-size filter built once, and every run puts back the slots it
	// touched, so an exec costs its ops, not the 2^20 slots.
	ref := pfReference{marks: make([]uint64, 1<<pfFilterBits)}
	var top pfFilter
	var topRef pfReference
	topMark := func(s uint64) uint64 { // the top start: every even slot marked
		if s%2 != 0 {
			return 0
		}
		return uint64(pfBlock(s, 1)) + 1
	}
	f.Fuzz(func(t *testing.T, atTop bool, ops []byte) {
		e := &engine{res: &Result{}, prefetched: newPFFilter()}
		r := &ref
		if atTop {
			if top.marks == nil {
				top = newPFFilter()
				topRef = pfReference{marks: make([]uint64, 1<<pfFilterBits)}
				for s := uint64(0); s < 1<<pfFilterBits; s += 2 {
					b := pfBlock(s, 1)
					top.note(b)
					topRef.note(b)
				}
				if len(top.marks) != 1<<pfFilterBits {
					t.Fatalf("2^19 marks left the table at %d entries, want 2^20", len(top.marks))
				}
				if !slices.Equal(top.marks, topRef.marks) {
					t.Fatal("top-size table differs from the dense reference")
				}
			}
			e.prefetched = top
			r = &topRef
		}
		start := *r
		var touched []uint64
		seen := map[uint64]bool{}
		defer func() {
			for _, s := range touched {
				r.marks[s] = 0
				if atTop {
					r.marks[s] = topMark(s)
					top.marks[s] = topMark(s)
				}
			}
			*r = start
		}()
		for k := 0; k+4 <= len(ops) && k < 4*pfFuzzOps; k += 4 {
			op := ops[k : k+4]
			slot := pfNarrowSlots[int(op[1])%len(pfNarrowSlots)]
			if op[0]&2 != 0 {
				slot = uint64(op[1])<<12 | uint64(op[2])<<4 | uint64(op[0]>>4)
			}
			b := pfBlock(slot, uint64(op[3]%4))
			if op[0]&1 == 0 {
				e.prefetched.note(b)
				r.note(b)
			} else {
				e.markUseful(b)
				r.markUseful(b)
			}
			if !seen[slot] {
				seen[slot] = true
				touched = append(touched, slot)
			}
			for _, s := range touched {
				got := uint64(0)
				if i, ok := e.prefetched.find(s); ok {
					got = e.prefetched.marks[i]
					if atTop && i != int(s) {
						t.Fatalf("op %d: top-size table probed slot %d to index %d", k/4, s, i)
					}
				}
				if got != r.marks[s] {
					t.Fatalf("op %d: slot %d holds %#x, reference %#x", k/4, s, got, r.marks[s])
				}
			}
			if e.prefetched.live != r.live || e.res.Prefetch.Useful != r.useful {
				t.Fatalf("op %d: %d marks and %d useful, reference %d and %d",
					k/4, e.prefetched.live, e.res.Prefetch.Useful, r.live, r.useful)
			}
		}
		if !atTop {
			checkPFFilterShape(t, &e.prefetched)
		}
	})
}

// TestPFBlockHitsSlot pins the test helper the fuzz target builds its
// colliding blocks with.
func TestPFBlockHitsSlot(t *testing.T) {
	for _, s := range append([]uint64{1 << 19, 12345}, pfNarrowSlots...) {
		for low := uint64(0); low < 4; low++ {
			if got := pfSlot(pfBlock(s, low)); got != s {
				t.Fatalf("pfSlot(pfBlock(%d, %d)) = %d", s, low, got)
			}
		}
	}
}
